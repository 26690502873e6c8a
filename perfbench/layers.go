package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// perLayerNames lists every per-layer metric a traced run reports, in
// pipeline order. A layer a workload does not exercise reads 0.
// README.md says which end-to-end metric each should move.
var perLayerNames = []struct{ name, unit string }{
	{"hdl.parse_ms", "ms"},
	{"hdl.parse_allocs", "count"},
	{"measure.minimize_ms", "ms"},
	{"elab.elaborate_ms", "ms"},
	{"elab.subtree_hit_ratio", "ratio"},
	{"elab.probe_hit_ratio", "ratio"},
	{"measure.planned", "count"},
	{"measure.synthesized", "count"},
	{"measure.shared", "count"},
	{"synth.lower_ms", "ms"},
	{"synth.raw_cells", "count"},
	{"netlist.optimize_ms", "ms"},
	{"netlist.opt_cells", "count"},
	{"cones.analyze_ms", "ms"},
	{"fpga.map_ms", "ms"},
	{"fpga.luts", "count"},
	{"power.analyze_ms", "ms"},
	{"cache.put_ms", "ms"},
	{"cache.puts", "count"},
	{"cache.bytes_per_entry", "bytes"},
	{"cache.compress_ratio", "ratio"},
	{"cache.get_ms", "ms"},
	{"cache.decode_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"nlme.fit_ms", "ms"},
	{"nlme.fits", "count"},
	{"core.evaluate_ms", "ms"},
	{"depgraph.diff_ms", "ms"},
	{"depgraph.dirty_units", "count"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.request_decode_ms", "ms"},
	{"serve.response_encode_ms", "ms"},
	{"serve.response_bytes", "bytes"},
	{"parallel.queued_max", "count"},
	{"serve.rejected", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_unit", "bytes"},
	{"runtime.allocs_per_unit", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// spanMetrics maps per-layer "…_ms" metrics to the span they average.
var spanMetrics = map[string]string{
	"hdl.parse_ms":             "hdl.parse",
	"measure.minimize_ms":      "measure.minimize",
	"elab.elaborate_ms":        "elab.elaborate",
	"synth.lower_ms":           "synth.lower",
	"netlist.optimize_ms":      "netlist.optimize",
	"cones.analyze_ms":         "cones.analyze",
	"fpga.map_ms":              "fpga.map",
	"power.analyze_ms":         "power.analyze",
	"cache.put_ms":             "cache.put",
	"cache.get_ms":             "cache.get",
	"nlme.fit_ms":              "nlme.fit",
	"core.evaluate_ms":         "core.evaluate",
	"depgraph.diff_ms":         "depgraph.diff",
	"serve.request_decode_ms":  "serve.request_decode",
	"serve.response_encode_ms": "serve.response_encode",
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
	gcCycles        uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), allocObjects: u(3), gcCycles: u(4)}
}

// setRuntime reports the runtime counters between two samples taken
// around an untraced phase that completed ops operations over units
// measured units.
func (l *layers) setRuntime(a, b runtimeSample, ops, units int) {
	l.setRatio("runtime.gc_cpu_frac", ratio{b.gcCPU - a.gcCPU, b.totalCPU - a.totalCPU})
	l.setRatio("runtime.alloc_bytes_per_unit", ratio{float64(b.allocBytes - a.allocBytes), float64(units)})
	l.setRatio("runtime.allocs_per_unit", ratio{float64(b.allocObjects - a.allocObjects), float64(units)})
	l.setRatio("runtime.gc_cycles", ratio{float64(b.gcCycles - a.gcCycles), float64(ops)})
	l.detail["runtime.gc_cycles"] += " per operation"
}

// replayPhase runs replay operations for d, alternating traced and
// untraced ones (at least one of each), and reports the span metrics,
// trace.coverage and trace.overhead_frac. The returned tracer holds
// every span.
func (l *layers) replayPhase(d time.Duration, t *tally, replay func(tr *tracer) error) (*tracer, map[string]*layerStats) {
	tr := newTracer()
	var traced, untraced []float64
	var tracedWall time.Duration
	deadline := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var use *tracer
		if i%2 == 0 {
			use = tr
		}
		use.beginOp()
		start := time.Now()
		id := use.begin("op")
		err := replay(use)
		use.end(id)
		el := time.Since(start)
		t.record(err)
		if use != nil {
			traced = append(traced, el.Seconds())
			tracedWall += el
		} else {
			untraced = append(untraced, el.Seconds())
		}
	}
	stats := tr.byName()
	for metric, name := range spanMetrics {
		if ls := stats[name]; ls != nil {
			l.set(metric, meanMS(stats, name), fmt.Sprintf("mean of %d calls", ls.Calls))
		}
	}
	l.setRatio("trace.coverage", coverage(stats, tracedWall))
	l.detail["trace.coverage"] += " layer self-time s / traced wall s"
	mt, mu := median(traced), median(untraced)
	l.set("trace.overhead_frac", mt/mu-1, fmt.Sprintf("median traced op %.4f s (%d) vs untraced %.4f s (%d)", mt, len(traced), mu, len(untraced)))
	return tr, stats
}

// allocsOf runs f and returns how many heap objects it allocated (the
// count is exact: ReadMemStats stops the world).
func allocsOf(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}
