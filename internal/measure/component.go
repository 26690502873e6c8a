package measure

import (
	"fmt"
	"maps"

	"repro/internal/cache"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// ComponentResult carries a component measurement along with the
// accounting details that produced it. internal/accounting re-exports
// it as accounting.Result.
type ComponentResult struct {
	Metrics *Metrics
	// UniqueModules lists the distinct modules in the component's
	// hierarchy (sorted).
	UniqueModules []string
	// MinimizedParams holds the scaled top-level parameter values
	// (accounting mode only; nil otherwise).
	MinimizedParams map[string]int64
	// InstanceCount is the elaborated instance count of the component
	// at the parameters actually measured.
	InstanceCount int
	// DedupedInstances is how many duplicate instances the
	// single-instance rule removed (accounting mode only).
	DedupedInstances int
	// Synth is the synthesis of the component at the measured
	// parameter point. Downstream analyses (timing, power sweeps) can
	// reuse it instead of re-running synthesis.
	Synth *synth.Result
	// ElabCacheHits and ElabCacheMisses count memoized versus fresh
	// point verdicts during the parameter-minimization search
	// (accounting mode only). Subtree-level elaboration-cache activity
	// is reported through Options.ElabStats and Session.ElabStats.
	ElabCacheHits, ElabCacheMisses int
}

// MeasureComponent measures one component (a module plus everything it
// instantiates).
//
// With useAccounting (Section 2.2 of the paper), the component is
// measured at its minimized parameterization and every repeated
// (module, parameters) subtree is synthesized once — duplicate
// instances reuse the representative's logic structurally during
// lowering. Without it, the component is measured as instantiated:
// full default parameters, every instance counted.
//
// The software metrics (LoC, Stmts) sum each unique module's source
// once in both modes — the paper notes in Section 5.3 that the
// accounting procedure does not affect them.
//
// It is a one-unit batch on a fresh Session; to measure a whole
// component set, use one Session and MeasureAll, which shares the
// synthesis of every repeated design point across components.
func MeasureComponent(design *hdl.Design, top string, useAccounting bool, opts Options) (*ComponentResult, error) {
	res, err := NewSession(design).MeasureAll([]Unit{{Top: top, UseAccounting: useAccounting}}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// componentKey derives the on-disk cache key of one component
// measurement. The key hashes the component's transitive subtree
// sources (hdl.Design.SubtreeHash), not the whole design's
// fingerprint, so an edit elsewhere in the design — or measuring the
// same component from a differently-composed design — leaves the
// entry warm.
func componentKey(design *hdl.Design, top string, useAccounting bool, opts Options) (string, error) {
	st, err := design.SubtreeHash(top)
	if err != nil {
		return "", err
	}
	eff := opts
	eff.DedupInstances = useAccounting
	return cache.KindKey("component", append([]string{
		st, top, fmt.Sprintf("acct=%t", useAccounting),
	}, eff.CacheKeyParts()...)...), nil
}

// componentRecord is the cacheable projection of a ComponentResult:
// everything downstream consumers read (metrics, accounting details,
// and the optimized netlist that timing analysis reuses), without the
// live elaboration trees a fresh synthesis also carries.
type componentRecord struct {
	Metrics          *Metrics
	UniqueModules    []string
	MinimizedParams  map[string]int64
	InstanceCount    int
	DedupedInstances int
	// ElabCacheHits/Misses describe the run that populated the entry
	// (they depend on probe scheduling, not on the result).
	ElabCacheHits, ElabCacheMisses int
	Optimized                      *netlist.Netlist
}

func recordOf(res *ComponentResult) *componentRecord {
	return &componentRecord{
		Metrics:          res.Metrics,
		UniqueModules:    res.UniqueModules,
		MinimizedParams:  res.MinimizedParams,
		InstanceCount:    res.InstanceCount,
		DedupedInstances: res.DedupedInstances,
		ElabCacheHits:    res.ElabCacheHits,
		ElabCacheMisses:  res.ElabCacheMisses,
		Optimized:        res.Synth.Optimized,
	}
}

func (r *componentRecord) toResult() *ComponentResult {
	return &ComponentResult{
		Metrics:          r.Metrics,
		UniqueModules:    r.UniqueModules,
		MinimizedParams:  r.MinimizedParams,
		InstanceCount:    r.InstanceCount,
		DedupedInstances: r.DedupedInstances,
		ElabCacheHits:    r.ElabCacheHits,
		ElabCacheMisses:  r.ElabCacheMisses,
		Synth:            &synth.Result{Optimized: r.Optimized},
	}
}

// compareRecords is the cache's verify-mode comparator: every
// paper-facing value must match bit-for-bit; the elaboration-memo
// counters are scheduling-dependent and excluded.
func compareRecords(cached, fresh *componentRecord) string {
	switch {
	case *cached.Metrics != *fresh.Metrics:
		return fmt.Sprintf("metrics differ: cached %+v, fresh %+v", *cached.Metrics, *fresh.Metrics)
	case !maps.Equal(cached.MinimizedParams, fresh.MinimizedParams):
		return fmt.Sprintf("minimized parameters differ: cached %v, fresh %v", cached.MinimizedParams, fresh.MinimizedParams)
	case cached.InstanceCount != fresh.InstanceCount:
		return fmt.Sprintf("instance count differs: cached %d, fresh %d", cached.InstanceCount, fresh.InstanceCount)
	case cached.DedupedInstances != fresh.DedupedInstances:
		return fmt.Sprintf("deduped instances differ: cached %d, fresh %d", cached.DedupedInstances, fresh.DedupedInstances)
	case cached.Optimized.Hash() != fresh.Optimized.Hash():
		return "optimized netlist structure differs"
	}
	return ""
}
