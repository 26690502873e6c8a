package main

import (
	"fmt"
	"math"
	"time"
)

// Published values the paper-cold checks compare against (paper
// Table 4 and Section 5.1.1), with the tolerances the repository's
// paper tests use.
const (
	paperDEE1SigmaEps = 0.46
	paperDEE1AIC      = 34.8
	paperDEE1BIC      = 38.4
	sigmaEpsTol       = 0.02
	infoCritTol       = 0.25
)

// paperCold reproduces the paper cold in a closed loop: Table 4,
// AIC/BIC and Figure 6 (18 components with and without accounting,
// then 2 × 12 estimator refits), each pass over a fresh session and no
// disk cache. Its inputs are fixed; the seed is not used.
type paperCold struct {
	cfg    *config
	design design
	units  []unit
	ref    []unitResult // session results of the 36 Figure 6 units
	first  *paperRepro
}

func (w *paperCold) setup() error {
	d, err := paperDesign()
	if err != nil {
		return err
	}
	w.design = d
	for _, acct := range []bool{true, false} {
		for _, top := range paperTops() {
			w.units = append(w.units, unit{Top: top, UseAccounting: acct})
		}
	}
	if w.ref, err = measureAll(newSession(w.design), w.units, nil, ""); err != nil {
		return err
	}
	// One reproduction warms the process-wide pools and memos, as any
	// long-lived user would have.
	_, err = reproducePaper()
	return err
}

func (w *paperCold) fill() error { return nil }

func (w *paperCold) check(t *tally) {}

// verify checks one reproduction against the published values and
// against the first pass of the run (every pass must agree exactly).
func (w *paperCold) verify(r *paperRepro) error {
	switch {
	case math.Abs(r.DEE1SigmaEps-paperDEE1SigmaEps) > sigmaEpsTol:
		return fmt.Errorf("DEE1 sigma_eps %.4f, paper %.2f", r.DEE1SigmaEps, paperDEE1SigmaEps)
	case math.Abs(r.DEE1AIC-paperDEE1AIC) > infoCritTol || math.Abs(r.DEE1BIC-paperDEE1BIC) > infoCritTol:
		return fmt.Errorf("DEE1 AIC/BIC %.3f/%.3f, paper %.1f/%.1f", r.DEE1AIC, r.DEE1BIC, paperDEE1AIC, paperDEE1BIC)
	case r.StmtsWith != r.StmtsWout:
		return fmt.Errorf("Figure 6 Stmts sigma_eps changed with accounting: %v vs %v", r.StmtsWith, r.StmtsWout)
	}
	if w.first == nil {
		w.first = r
	} else if digestOf(r.outputs()) != digestOf(w.first.outputs()) {
		return fmt.Errorf("reproduction differs from the run's first pass")
	}
	return nil
}

// outputs is the timing-free part of a reproduction.
func (r *paperRepro) outputs() any {
	return []any{r.DEE1SigmaEps, r.DEE1AIC, r.DEE1BIC, r.Fig6With, r.Fig6Wout, r.Stats}
}

func (w *paperCold) measure(deadline time.Time, t *tally, hs *hostSpeed) (*e2e, error) {
	res := &e2e{}
	hs.sample()
	for time.Now().Before(deadline) {
		op := time.Now()
		r, err := reproducePaper()
		end := time.Now()
		if err == nil {
			err = w.verify(r)
		}
		t.record(err)
		if err == nil {
			res.addSegment(op, end, 1, len(w.units), map[string][]float64{"op": {end.Sub(op).Seconds() * 1e3}})
		}
		hs.sample()
	}
	res.finish(hs)
	res.extra = []reportLine{{"repro_per_s", "1/s", float64(res.ops) / res.normBusy, "complete cold reproductions per second, scaled"}}
	return res, nil
}

func (w *paperCold) trace(d time.Duration, t *tally) (*layers, error) {
	l := newLayers()
	// Untraced reproductions give the counters.
	a := readRuntime()
	ops := 0
	var last *paperRepro
	for end := time.Now().Add(d / 2); ops == 0 || time.Now().Before(end); ops++ {
		r, err := reproducePaper()
		if err == nil {
			err = w.verify(r)
		}
		t.record(err)
		if err != nil {
			return nil, err
		}
		last = r
	}
	l.setRuntime(a, readRuntime(), ops, ops*len(w.units))
	l.set("measure.planned", float64(last.Stats.Planned), "per reproduction")
	l.set("measure.synthesized", float64(last.Stats.Synthesized), "per reproduction")
	l.set("measure.shared", float64(last.Stats.Shared), "per reproduction")
	l.setRatio("elab.subtree_hit_ratio", ratio{float64(last.Elab.Hits), float64(last.Elab.Hits + last.Elab.Misses)})
	l.setRatio("elab.probe_hit_ratio", ratio{float64(last.ProbeHits), float64(last.ProbeHits + last.ProbeMiss)})

	acc := &replayAcc{}
	tr, stats := l.replayPhase(d/2, t, func(tr *tracer) error { return w.replay(tr, acc) })
	acc.report(l)
	if ls := stats["nlme.fit"]; ls != nil {
		l.setRatio("nlme.fits", ratio{float64(ls.Calls), float64(stats["op"].Calls)})
		l.detail["nlme.fits"] += " direct fits per traced reproduction"
	}
	return l, tr.write(w.cfg.spanPath())
}

// replay runs one reproduction layer by layer: parse, every unit
// through the measurement pipeline, the Figure 6 and AIC/BIC fits, and
// Table 4's estimator evaluation.
func (w *paperCold) replay(tr *tracer, acc *replayAcc) error {
	var d design
	allocs, err := allocsOf(func() error {
		return tr.do("hdl.parse", func() (err error) { d, err = paperDesign(); return err })
	})
	if err != nil {
		return err
	}
	acc.parseAllocs += allocs
	acc.parses++
	for i, u := range w.units {
		if err := replayUnit(tr, d, u, w.ref[i], nil, acc); err != nil {
			return err
		}
	}
	projects, efforts := paperEffort()
	n := len(projects)
	for sweep := 0; sweep < 2; sweep++ {
		for _, names := range estimators() {
			rows := make([]fitRow, n)
			for i := range rows {
				rows[i] = fitRow{Project: projects[i], Effort: efforts[i]}
				for _, m := range names {
					v, err := metricOf(w.ref[sweep*n+i], m)
					if err != nil {
						return err
					}
					rows[i].Metrics = append(rows[i].Metrics, v)
				}
			}
			for _, mixed := range []bool{true, false} {
				if err := tr.do("nlme.fit", func() error { _, err := fit(rows, names, mixed); return err }); err != nil {
					return err
				}
			}
		}
	}
	for _, names := range estimators()[:2] { // AIC/BIC: DEE1 and Stmts
		rows, err := paperRows(names)
		if err != nil {
			return err
		}
		if err := tr.do("nlme.fit", func() error { _, err := fit(rows, names, true); return err }); err != nil {
			return err
		}
	}
	return tr.do("core.evaluate", evaluateEstimators)
}

func (w *paperCold) digest(h *digestWriter) {
	h.add(digestOf(w.ref))
	if w.first != nil {
		h.add(w.first.outputs())
	}
}

func (w *paperCold) close() error { return nil }
