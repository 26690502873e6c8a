package measure

import (
	"maps"
	"sort"
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/synth"
)

// referenceMinimize reimplements the parameter-minimization search
// with plain uncached, full elaborations and no memo of any kind —
// the specification the memoized/report-only search must match
// bit-for-bit. It mirrors minimizeParams' fixpoint structure exactly
// (same candidate order, same rounds) but probes every point from
// scratch.
func referenceMinimize(t *testing.T, d *hdl.Design, module string) map[string]int64 {
	t.Helper()
	mod, err := d.Module(module)
	if err != nil {
		t.Fatal(err)
	}
	_, refReport, err := elab.Elaborate(d, module, nil)
	if err != nil {
		t.Fatal(err)
	}
	current := map[string]int64{}
	env := elab.NewEnv(nil)
	for _, p := range mod.Params {
		v, err := elab.Eval(p.Value, env)
		if err != nil {
			t.Fatal(err)
		}
		current[p.Name] = v
		if err := env.Define(p.Name, v); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(current))
	for n := range current {
		names = append(names, n)
	}
	sort.Strings(names)

	for round := 0; round < 5; round++ {
		changed := false
		for _, name := range names {
			for _, v := range candidateValues(current[name]) {
				if v >= current[name] {
					break
				}
				cand := make(map[string]int64, len(current))
				for k, cv := range current {
					cand[k] = cv
				}
				cand[name] = v
				_, rep, err := elab.Elaborate(d, module, cand)
				if err != nil {
					continue
				}
				if ok, _ := refReport.CompatibleWith(rep); ok {
					current[name] = v
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return current
}

// TestMinimizeParamsCorpusMatchesUncachedReference pins, for every
// corpus component and at several worker counts, that the memoized
// report-only search minimizes to exactly the parameters the plain
// uncached reference search finds, and that the netlist measured at
// that point hashes identically whether its elaboration came from the
// session cache or from scratch.
func TestMinimizeParamsCorpusMatchesUncachedReference(t *testing.T) {
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		want := referenceMinimize(t, d, c.Top)
		for _, workers := range []int{1, 8} {
			got, err := MinimizeParamsN(d, c.Top, workers)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", c.Label(), workers, err)
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s (workers=%d): minimized %v, uncached reference %v",
					c.Label(), workers, got, want)
			}
		}

		// Downstream pins: the session's accounting measurement must be
		// bit-identical to the standalone reference pipeline, and its
		// optimized netlist (built from cached subtrees) must hash
		// identically to a synthesis of the same point elaborated
		// entirely from scratch.
		res, err := MeasureComponent(d, c.Top, true, Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("%s: measure: %v", c.Label(), err)
		}
		ref, err := measureComponent(d, c.Top, true, Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.Label(), err)
		}
		if *res.Metrics != *ref.Metrics || res.InstanceCount != ref.InstanceCount ||
			res.DedupedInstances != ref.DedupedInstances {
			t.Errorf("%s: session %+v (%d inst, %d deduped), reference %+v (%d inst, %d deduped)",
				c.Label(), *res.Metrics, res.InstanceCount, res.DedupedInstances,
				*ref.Metrics, ref.InstanceCount, ref.DedupedInstances)
		}
		if !maps.Equal(res.MinimizedParams, want) {
			t.Errorf("%s: measured at %v, reference %v", c.Label(), res.MinimizedParams, want)
		}
		fresh, err := synth.SynthesizeOpts(d, c.Top, want, synth.LowerOptions{DedupInstances: true})
		if err != nil {
			t.Fatalf("%s: fresh synthesis: %v", c.Label(), err)
		}
		if got, want := res.Synth.Optimized.Hash(), fresh.Optimized.Hash(); got != want {
			t.Errorf("%s: cached-elaboration netlist hash %s, fresh %s", c.Label(), got, want)
		}
		if got, want := ref.Synth.Optimized.Hash(), fresh.Optimized.Hash(); got != want {
			t.Errorf("%s: reference netlist hash %s, fresh %s", c.Label(), got, want)
		}
	}
}

// TestMeasureComponentElabStats pins that the accounting path reports
// elaboration-cache activity: the search must reuse subtrees on a
// design whose submodules repeat across probes, and the counters must
// reach the Options.ElabStats recorder, with its point-probe counters
// equal to the result's.
func TestMeasureComponentElabStats(t *testing.T) {
	d := design(t, replicatedDesign)
	rec := &elab.StatsRecorder{}
	res, err := MeasureComponent(d, "quad", true, Options{Concurrency: 1, ElabStats: rec})
	if err != nil {
		t.Fatal(err)
	}
	s, probeHits, probeMisses := rec.Snapshot()
	if s.Hits == 0 || s.InstancesReused == 0 {
		t.Errorf("accounting search reused no subtrees: %+v", s)
	}
	if probeHits != res.ElabCacheHits || probeMisses != res.ElabCacheMisses {
		t.Errorf("recorder probes %d/%d, result %d/%d",
			probeHits, probeMisses, res.ElabCacheHits, res.ElabCacheMisses)
	}
}
