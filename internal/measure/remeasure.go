package measure

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/depgraph"
	"repro/internal/elab"
	"repro/internal/hdl"
)

// Incremental remeasurement: a Baseline snapshots one measured batch —
// the dependency graph of the design it was measured on plus the
// results — and Session.Remeasure diffs an edited design against it,
// re-measuring only the units whose transitive instantiation subtree
// actually changed. Units outside the dirty cone are served from the
// baseline's results unchanged, which is sound for the same reason the
// subtree-keyed disk cache is: every measurement of a top module is a
// pure function of its subtree's formatted sources and the options, so
// an unchanged subtree measures bit-identically (the session golden
// tests pin this against from-scratch MeasureAll).

// Baseline is the remeasurement anchor of one measured batch: the
// dependency graph recorded over the design the batch ran on, the unit
// list, and the results in unit order.
type Baseline struct {
	Graph   *depgraph.Graph
	Units   []Unit
	Results []*ComponentResult

	byUnit map[Unit]*ComponentResult
}

// Result returns the baseline's result for one unit.
func (b *Baseline) Result(u Unit) (*ComponentResult, bool) {
	r, ok := b.byUnit[u]
	return r, ok
}

// optionsKey renders the result-determining options as the dependency
// graph's options identity: a baseline recorded under different
// options must not serve a remeasurement (the dirty cone only tracks
// source changes).
func optionsKey(opts Options) string {
	return strings.Join(opts.CacheKeyParts(), "|")
}

// graphKey derives the disk key of a persisted dependency graph
// ("depgraph" entries): one graph per (design fingerprint, options).
func graphKey(fingerprint, optKey string) string {
	return cache.KindKey("depgraph", fingerprint, optKey)
}

// FetchGraph loads the recorded dependency graph for a design
// fingerprint and options from the cache (false on a nil cache or no
// entry). A later process can diff an edited design against it —
// counting the dirty cone, deciding whether anything needs measuring —
// without re-measuring or even holding the baseline design.
func FetchGraph(c *cache.Cache, fingerprint string, opts Options) (*depgraph.Graph, bool) {
	return cache.Fetch(c, graphKey(fingerprint, optionsKey(opts)), depgraph.GraphCodec)
}

// Baseline records the dependency graph of a measured batch: per unit,
// the subtree source hash, the resolved parameter signature, and the
// optimized netlist hash, over the design's module-level hash-and-edge
// layer. results must be MeasureAll's output for units under opts on
// this session's design. When opts.Cache is set the graph is also
// persisted (entry kind "depgraph") so later processes can diff
// against it.
func (s *Session) Baseline(units []Unit, results []*ComponentResult, opts Options) (*Baseline, error) {
	if len(units) != len(results) {
		return nil, fmt.Errorf("measure: baseline of %d units with %d results", len(units), len(results))
	}
	g, err := depgraph.Build(s.design, optionsKey(opts))
	if err != nil {
		return nil, err
	}
	b := &Baseline{
		Graph:   g,
		Units:   units,
		Results: results,
		byUnit:  make(map[Unit]*ComponentResult, len(units)),
	}
	for i, u := range units {
		res := results[i]
		if res == nil {
			return nil, fmt.Errorf("measure: baseline unit %s has a nil result", u.Top)
		}
		st, err := s.design.SubtreeHash(u.Top)
		if err != nil {
			return nil, err
		}
		full, err := s.resolvedParams(u.Top, res.MinimizedParams)
		if err != nil {
			return nil, err
		}
		nh := ""
		if res.Synth != nil && res.Synth.Optimized != nil {
			nh = res.Synth.Optimized.Hash()
		}
		g.AddUnit(depgraph.Unit{
			Top:           u.Top,
			UseAccounting: u.UseAccounting,
			SubtreeHash:   st,
			ParamSig:      elab.ParamSignature(u.Top, full),
			Params:        full,
			NetlistHash:   nh,
		})
		b.byUnit[u] = res
	}
	if opts.Cache != nil {
		if _, err := cache.PutIfAbsent(opts.Cache, graphKey(g.Fingerprint, g.OptionsKey), depgraph.GraphCodec, g); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// RemeasureStats describes what one Remeasure call had to redo.
type RemeasureStats struct {
	// ChangedModules, AddedModules, and RemovedModules are the
	// module-level edits the diff found (sorted name lists from
	// depgraph.Delta).
	ChangedModules, AddedModules, RemovedModules []string
	// DirtyModules and CleanModules partition the new design's module
	// set by the transitive dirty cone.
	DirtyModules, CleanModules int
	// DirtyUnits counts the units re-measured; CleanUnits counts the
	// units served from the baseline's results.
	DirtyUnits, CleanUnits int
}

// Remeasure measures the batch against this session's design,
// re-measuring only the units whose subtree the baseline's dependency
// graph marks dirty; clean units are answered from the baseline's
// results (bit-identical by the subtree purity argument — the golden
// tests compare against a from-scratch MeasureAll). A unit the
// baseline never measured, or a baseline recorded under different
// options, is dirty by definition. It returns the results in unit
// order plus the successor baseline anchored on this session's design.
func (s *Session) Remeasure(prev *Baseline, units []Unit, opts Options) ([]*ComponentResult, *Baseline, RemeasureStats, error) {
	return s.RemeasureCtx(context.Background(), prev, units, opts)
}

// RemeasureCtx is Remeasure under a context: the dirty-unit measurement
// runs through MeasureAllCtx with its unit-granular cancellation
// contract. The diff itself and the successor-baseline recording are
// cheap and run to completion once measurement has succeeded.
func (s *Session) RemeasureCtx(ctx context.Context, prev *Baseline, units []Unit, opts Options) ([]*ComponentResult, *Baseline, RemeasureStats, error) {
	var stats RemeasureStats
	results := make([]*ComponentResult, len(units))
	var dirtyUnits []Unit
	var dirtyIdx []int

	sameOpts := prev != nil && prev.Graph != nil && prev.Graph.OptionsKey == optionsKey(opts)

	// The watch loop's most common wakeup is a save that changed
	// nothing: a design whose whole-tree fingerprint matches the
	// baseline's is module-for-module identical, so an identical batch
	// needs no diff, no measurement, and no new graph — the baseline
	// carries over as its own successor.
	if sameOpts && prev.Graph.Fingerprint == s.design.Fingerprint() && slices.Equal(units, prev.Units) {
		copy(results, prev.Results)
		stats.CleanUnits = len(units)
		stats.CleanModules = len(prev.Graph.Modules)
		return results, prev, stats, nil
	}

	var delta *depgraph.Delta
	if sameOpts {
		d, err := depgraph.Diff(prev.Graph, s.design)
		if err != nil {
			return nil, nil, stats, err
		}
		delta = d
		stats.ChangedModules = d.Changed
		stats.AddedModules = d.Added
		stats.RemovedModules = d.Removed
		stats.DirtyModules, stats.CleanModules = d.DirtyModules, d.CleanModules
	} else if err := recountModules(s.design, &stats); err != nil {
		return nil, nil, stats, err
	}

	for i, u := range units {
		if sameOpts && !delta.Dirty(u.Top) {
			if res, ok := prev.Result(u); ok {
				results[i] = res
				stats.CleanUnits++
				continue
			}
		}
		dirtyUnits = append(dirtyUnits, u)
		dirtyIdx = append(dirtyIdx, i)
	}
	stats.DirtyUnits = len(dirtyUnits)

	if len(dirtyUnits) > 0 {
		fresh, err := s.MeasureAllCtx(ctx, dirtyUnits, opts)
		if err != nil {
			return nil, nil, stats, err
		}
		for j, i := range dirtyIdx {
			results[i] = fresh[j]
		}
	}

	next, err := s.Baseline(units, results, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	return results, next, stats, nil
}

// recountModules fills the module partition for the no-baseline case:
// with nothing to diff against, every module of the design is dirty.
func recountModules(d *hdl.Design, stats *RemeasureStats) error {
	names := d.ModuleNames()
	stats.DirtyModules = len(names)
	stats.AddedModules = append([]string(nil), names...)
	return nil
}
