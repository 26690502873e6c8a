package main

import (
	"fmt"
	"os"
	"time"
)

// genComponents is the generated corpus size of gen-cold and gen-warm:
// 300 components, measured with and without accounting, 600 units.
const genComponents = 300

// equivSamples is how many generated units set-up simulates against
// their gate-level netlists.
const equivSamples = 4

// genSweep measures a seeded generated corpus in a closed loop, one
// streaming session per pass. Cold (gen-cold): every pass measures
// with the disk cache off, so a pass times planning and synthesis, not
// the host's disk. Warm (gen-warm): every pass re-parses the sources
// and measures over the disk cache fill wrote.
type genSweep struct {
	cfg    *config
	warm   bool
	files  map[string]string
	design design
	units  []unit
	ref    []unitResult // direct no-cache session results
	refDig string
	cache  diskCache // gen-warm: the cache fill wrote
	counts []int     // timing-free per-pass counters of the first pass
}

func (w *genSweep) setup() error {
	files, tops, err := generate(genComponents, w.cfg.seed)
	if err != nil {
		return err
	}
	w.files = files
	if w.design, err = parse(files); err != nil {
		return err
	}
	w.units = w.units[:0]
	for _, acct := range []bool{true, false} {
		for _, top := range tops {
			w.units = append(w.units, unit{Top: top, UseAccounting: acct})
		}
	}
	// The reference every pass must equal: a direct session without a
	// disk cache.
	if w.ref, err = measureAll(newSession(w.design), w.units, nil, ""); err != nil {
		return err
	}
	w.refDig = digestOf(w.ref)
	if w.warm {
		return nil
	}
	// One pass warms the process-wide pools.
	_, err = measureStream(newSession(w.design), w.units, nil)
	return err
}

// fill, for gen-warm, measures the corpus once into an empty disk
// cache, the cache every later pass reads.
func (w *genSweep) fill() error {
	if !w.warm {
		return nil
	}
	dir, err := w.cfg.newDir("warm-cache")
	if err != nil {
		return err
	}
	if w.cache, err = openCache(dir); err != nil {
		return err
	}
	_, err = measureStream(newSession(w.design), w.units, w.cache)
	return err
}

// check, for gen-cold, simulates a seeded sample of units' RTL
// against their gate-level netlists.
func (w *genSweep) check(t *tally) {
	if w.warm {
		return
	}
	ref := w.ref
	// Seeded candidates in turn until equivSamples units were checked;
	// units wider than the simulator supports are passed over.
	r := rng{s: w.cfg.seed ^ 0x5eed}
	checked := 0
	for tries := 0; checked < equivSamples && tries < 8*equivSamples; tries++ {
		k := r.intn(len(w.units))
		ok, err := checkEquivalence(w.design, ref[k].Top, ref[k].MinimizedParams, int64(tries))
		if ok {
			t.record(err)
			checked++
		}
	}
	if checked < equivSamples {
		t.record(fmt.Errorf("equivalence: only %d of %d sampled units are simulable", checked, equivSamples))
	}
}

// pass is one sweep: a fresh session (and, warm, a fresh parse) over
// the pass's cache. It returns the session's timing-free counters.
func (w *genSweep) pass(c diskCache) ([]streamResult, session, error) {
	d := w.design
	if w.warm {
		var err error
		if d, err = parse(w.files); err != nil {
			return nil, nil, err
		}
	}
	s := newSession(d)
	res, err := measureStream(s, w.units, c)
	return res, s, err
}

// verify checks a pass's results against the reference and its
// counters against the first pass's.
func (w *genSweep) verify(res []streamResult, s session) error {
	wire := make([]unitResult, len(res))
	for i, r := range res {
		wire[i] = r.Wire
	}
	if d := digestOf(wire); d != w.refDig {
		return fmt.Errorf("pass results digest %s, reference %s", d, w.refDig)
	}
	planned, synthesized, shared := sessionCounts(s)
	if w.warm && synthesized != 0 {
		return fmt.Errorf("warm pass synthesized %d signatures", synthesized)
	}
	counts := []int{planned, synthesized, shared}
	if w.counts == nil {
		w.counts = counts
	} else if fmt.Sprint(counts) != fmt.Sprint(w.counts) {
		return fmt.Errorf("pass counters %v, first pass %v", counts, w.counts)
	}
	return nil
}

func (w *genSweep) measure(deadline time.Time, t *tally, hs *hostSpeed) (*e2e, error) {
	res := &e2e{}
	hs.sample()
	for time.Now().Before(deadline) {
		op := time.Now()
		out, s, err := w.pass(w.cache)
		end := time.Now()
		if err == nil {
			err = w.verify(out, s)
		}
		t.record(err)
		if err == nil {
			res.addSegment(op, end, 1, len(w.units), map[string][]float64{"op": {end.Sub(op).Seconds() * 1e3}})
		}
		hs.sample()
	}
	res.finish(hs)
	return res, nil
}

func (w *genSweep) trace(d time.Duration, t *tally) (*layers, error) {
	l := newLayers()
	a := readRuntime()
	ops := 0
	var probeHits, probeMiss int
	var s session
	for end := time.Now().Add(d / 2); ops == 0 || time.Now().Before(end); ops++ {
		out, sess, err := w.pass(w.cache)
		if err == nil {
			err = w.verify(out, sess)
		}
		t.record(err)
		if err != nil {
			return nil, err
		}
		s = sess
		probeHits, probeMiss = 0, 0
		for _, r := range out {
			probeHits += r.ProbeHits
			probeMiss += r.ProbeMiss
		}
	}
	l.setRuntime(a, readRuntime(), ops, ops*len(w.units))
	planned, synthesized, shared := sessionCounts(s)
	l.set("measure.planned", float64(planned), "per pass")
	l.set("measure.synthesized", float64(synthesized), "per pass")
	l.set("measure.shared", float64(shared), "per pass")
	// A warm pass plans nothing: its records' probe counters describe
	// the pass that filled the cache, so they are not reported.
	if planned > 0 {
		eh, em := sessionElab(s)
		l.setRatio("elab.subtree_hit_ratio", ratio{float64(eh), float64(eh + em)})
		l.setRatio("elab.probe_hit_ratio", ratio{float64(probeHits), float64(probeHits + probeMiss)})
	}
	if err := w.cacheCounters(l, t); err != nil {
		return nil, err
	}

	// The replay reads and writes its own entries: optimized netlists
	// keyed like signature records, in a cache of its own.
	dir, err := w.cfg.newDir("replay")
	if err != nil {
		return nil, err
	}
	rc, err := openCache(dir)
	if err != nil {
		return nil, err
	}
	acc := &replayAcc{}
	if w.warm {
		// Fill the replay's entries once, untraced.
		if err := w.replay(nil, rc, acc, true); err != nil {
			return nil, err
		}
		acc = &replayAcc{}
	}
	tr, _ := l.replayPhase(d/2, t, func(tr *tracer) error {
		if !w.warm {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		return w.replay(tr, rc, acc, !w.warm)
	})
	acc.report(l)
	if !w.warm {
		if _, bytes, err := cacheDisk(rc); err == nil && bytes > 0 {
			l.setRatio("cache.compress_ratio", ratio{float64(acc.rawBytes) / float64(acc.ops), float64(bytes)})
			l.detail["cache.compress_ratio"] += " payload bytes / stored bytes of one replay pass"
		}
	}
	return l, tr.write(w.cfg.spanPath())
}

// cacheCounters runs one more pass with a disk cache — into an empty
// one (cold: these are counts, not times) or the filled one (warm) —
// and reports the cache layer's counters for it.
func (w *genSweep) cacheCounters(l *layers, t *tally) error {
	c := w.cache
	if c == nil {
		dir, err := w.cfg.newDir("counted")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if c, err = openCache(dir); err != nil {
			return err
		}
	}
	before := cacheStats(c)
	out, s, err := w.pass(c)
	if err == nil {
		err = w.verify(out, s)
	}
	t.record(err)
	if err != nil {
		return err
	}
	cs := cacheStats(c)
	hits, misses, puts := cs.Hits-before.Hits, cs.Misses-before.Misses, cs.Puts-before.Puts
	l.setRatio("cache.hit_ratio", ratio{float64(hits), float64(hits + misses)})
	l.set("cache.puts", float64(puts), "per pass")
	if hits > 0 {
		l.setRatio("cache.decode_ms", ratio{float64(cs.DecodeNanos-before.DecodeNanos) / 1e6, float64(hits)})
		l.detail["cache.decode_ms"] += " ms per hit"
	}
	entries, bytes, err := cacheDisk(c)
	if err != nil {
		return err
	}
	l.setRatio("cache.bytes_per_entry", ratio{float64(bytes), float64(entries)})
	return nil
}

// replay runs one pass layer by layer. Cold: parse, then every unit
// through the pipeline with its optimized netlist written to c. Warm:
// parse, then every unit's netlist read back from c and its source
// metrics summed.
func (w *genSweep) replay(tr *tracer, c diskCache, acc *replayAcc, write bool) error {
	var d design
	n, err := allocsOf(func() error {
		return tr.do("hdl.parse", func() (err error) { d, err = parse(w.files); return err })
	})
	if err != nil {
		return err
	}
	acc.parseAllocs += n
	acc.parses++
	acc.ops++
	for i, u := range w.units {
		if write {
			if err := replayUnit(tr, d, u, w.ref[i], c, acc); err != nil {
				return err
			}
			continue
		}
		if err := replayWarmUnit(tr, d, u, w.ref[i], c, acc); err != nil {
			return err
		}
	}
	return nil
}

func (w *genSweep) digest(h *digestWriter) { h.add(w.refDig, w.counts) }

func (w *genSweep) close() error { return nil }

// replayAcc accumulates what the per-unit replay observed.
type replayAcc struct {
	ops, parses, units       int
	parseAllocs              uint64
	rawCells, optCells, luts int
	rawBytes                 int64
}

// report sets the per-unit replay averages.
func (acc *replayAcc) report(l *layers) {
	if acc.parses > 0 {
		l.setRatio("hdl.parse_allocs", ratio{float64(acc.parseAllocs), float64(acc.parses)})
		l.detail["hdl.parse_allocs"] += " allocations per full parse"
	}
	// Per replayed unit; a warm replay reads optimized netlists only.
	u := float64(acc.units)
	for _, c := range []struct {
		name string
		sum  int
	}{{"synth.raw_cells", acc.rawCells}, {"netlist.opt_cells", acc.optCells}, {"fpga.luts", acc.luts}} {
		if c.sum > 0 {
			l.setRatio(c.name, ratio{float64(c.sum), u})
		}
	}
}

// replayUnit runs one unit through the measurement pipeline's layers
// in order — parameter minimization (accounting units), elaboration,
// lowering, optimization, exact cones, LUT mapping, power, source
// metrics — writing its optimized netlist to c when c is non-nil, and
// checks the replay against the session's result for the unit.
func replayUnit(tr *tracer, d design, u unit, want unitResult, c diskCache, acc *replayAcc) error {
	var params map[string]int64
	if u.UseAccounting {
		if err := tr.do("measure.minimize", func() (err error) { params, err = minimize(d, u.Top); return err }); err != nil {
			return err
		}
	}
	var inst *elabInstance
	if err := tr.do("elab.elaborate", func() (err error) { inst, _, err = elaborate(d, u.Top, params); return err }); err != nil {
		return err
	}
	var raw, opt *netlistT
	if err := tr.do("synth.lower", func() (err error) { raw, err = lower(inst, u.UseAccounting); return err }); err != nil {
		return err
	}
	if err := tr.do("netlist.optimize", func() (err error) { opt, err = optimize(raw); return err }); err != nil {
		return err
	}
	tr.do("cones.analyze", func() error { analyzeCones(opt); return nil })
	var m *mappingT
	tr.do("fpga.map", func() error { m = mapLUTs(opt); return nil })
	tr.do("power.analyze", func() error { analyzePower(opt, m.FreqMHz); return nil })
	var stmts int
	if err := tr.do("measure.assemble", func() (err error) { stmts, err = sourceMetrics(d, u.Top); return err }); err != nil {
		return err
	}
	acc.units++
	acc.rawCells += cellCount(raw)
	acc.optCells += cellCount(opt)
	acc.luts += len(m.LUTs)
	if c != nil {
		acc.rawBytes += int64(encodedSize(opt))
		if err := tr.do("cache.put", func() error {
			key, err := netlistKey(d, u, params)
			if err != nil {
				return err
			}
			return cachePut(c, key, opt)
		}); err != nil {
			return err
		}
	}
	return replayCheck(want, cellCount(opt), m.LUTInputSum, stmts)
}

// replayWarmUnit reads one unit's optimized netlist back from c and
// sums its source metrics: the layers a warm pass runs.
func replayWarmUnit(tr *tracer, d design, u unit, want unitResult, c diskCache, acc *replayAcc) error {
	var opt *netlistT
	if err := tr.do("cache.get", func() error {
		key, err := netlistKey(d, u, want.MinimizedParams)
		if err != nil {
			return err
		}
		var ok bool
		if opt, ok = cacheGet(c, key); !ok {
			return fmt.Errorf("replay: no cached netlist for %s", u.Top)
		}
		return nil
	}); err != nil {
		return err
	}
	var stmts int
	if err := tr.do("measure.assemble", func() (err error) { stmts, err = sourceMetrics(d, u.Top); return err }); err != nil {
		return err
	}
	acc.units++
	acc.optCells += cellCount(opt)
	if cellCount(opt) != want.Metrics.Cells || stmts != want.Metrics.Stmts {
		return fmt.Errorf("replay of %s: cached cells/stmts %d/%d, session %d/%d", u.Top, cellCount(opt), stmts, want.Metrics.Cells, want.Metrics.Stmts)
	}
	return nil
}
