package measure

import (
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/synth"
)

// MeasureComponentReference exposes measureComponent to the external
// test package.
var MeasureComponentReference = measureComponent

// measureComponent is the standalone single-component pipeline the
// session engine is pinned against: the minimization search on a
// private elaboration cache, one full elaboration, one synthesis, and
// the metric kernels without scratch workspaces — no flight table, no
// signature sharing, no disk cache. TestSessionMatchesPerComponentCorpus
// and the golden tests require every session result to be
// bit-identical to it.
func measureComponent(design *hdl.Design, top string, useAccounting bool, opts Options) (*ComponentResult, error) {
	modules, err := design.TransitiveModules(top)
	if err != nil {
		return nil, err
	}
	res := &ComponentResult{UniqueModules: modules}

	var inst *elab.Instance
	var report *elab.Report
	if useAccounting {
		params, memo, err := minimizeParams(design, top, opts.Concurrency, nil)
		if err != nil {
			return nil, err
		}
		res.MinimizedParams = params
		// The winning point's tree comes out of the search's session
		// cache, reusing every subtree the probes already built.
		inst, report, err = elab.ElaborateOpts(design, top, params, elab.Options{Cache: memo.sess})
		if err != nil {
			return nil, err
		}
		res.ElabCacheHits, res.ElabCacheMisses = memo.counters()
	} else {
		inst, report, err = elab.Elaborate(design, top, nil)
		if err != nil {
			return nil, err
		}
	}
	res.InstanceCount = inst.CountInstances()

	mopts := opts
	mopts.DedupInstances = useAccounting
	synres, err := synth.SynthesizeInstance(inst, report, synth.LowerOptions{
		DedupInstances: useAccounting,
	})
	if err != nil {
		return nil, err
	}
	res.Synth = synres
	res.DedupedInstances = synres.Deduped
	m := synthMetricsWS(synres, mopts, nil)

	// Software metrics: each unique module's source once.
	for _, name := range modules {
		src, err := SourceOnly(design, name)
		if err != nil {
			return nil, err
		}
		m.Stmts += src.Stmts
		m.LoC += src.LoC
	}
	res.Metrics = m
	return res, nil
}
