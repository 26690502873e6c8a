// Package measure runs the full µComplexity measurement pipeline on
// one module: elaborate → synthesize → optimize, then extract every
// Table 3 metric (software metrics from the source, ASIC metrics from
// the optimized netlist and cell library, FPGA metrics from the LUT
// mapping).
package measure

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cones"
	"repro/internal/dataset"
	"repro/internal/elab"
	"repro/internal/fpga"
	"repro/internal/hdl"
	"repro/internal/power"
	"repro/internal/srcmetrics"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

// Metrics is the full Table 3 metric vector for one measured unit,
// plus the exact-cone FanInLC that the paper's LUT approximation
// stands in for.
type Metrics struct {
	Stmts int
	LoC   int
	// FanInLC is the LUT-input-sum approximation (what the paper
	// reports); FanInLCExact is the true logic-cone fan-in total.
	FanInLC      int
	FanInLCExact int
	Nets         int
	Cells        int
	FFs          int
	FreqMHz      float64
	AreaL        float64 // µm²
	AreaS        float64 // µm²
	PowerD       float64 // mW
	PowerS       float64 // µW
}

// Add accumulates other into m. Freq aggregates as the minimum
// non-zero frequency (the slowest sub-block limits the clock).
func (m *Metrics) Add(other *Metrics) {
	m.Stmts += other.Stmts
	m.LoC += other.LoC
	m.FanInLC += other.FanInLC
	m.FanInLCExact += other.FanInLCExact
	m.Nets += other.Nets
	m.Cells += other.Cells
	m.FFs += other.FFs
	m.AreaL += other.AreaL
	m.AreaS += other.AreaS
	m.PowerD += other.PowerD
	m.PowerS += other.PowerS
	if other.FreqMHz > 0 && (m.FreqMHz == 0 || other.FreqMHz < m.FreqMHz) {
		m.FreqMHz = other.FreqMHz
	}
}

// Value returns the metric by its Table 3 name.
func (m *Metrics) Value(metric dataset.Metric) (float64, error) {
	switch metric {
	case dataset.Stmts:
		return float64(m.Stmts), nil
	case dataset.LoC:
		return float64(m.LoC), nil
	case dataset.FanInLC:
		return float64(m.FanInLC), nil
	case dataset.Nets:
		return float64(m.Nets), nil
	case dataset.Cells:
		return float64(m.Cells), nil
	case dataset.FFs:
		return float64(m.FFs), nil
	case dataset.Freq:
		return m.FreqMHz, nil
	case dataset.AreaL:
		return m.AreaL, nil
	case dataset.AreaS:
		return m.AreaS, nil
	case dataset.PowerD:
		return m.PowerD, nil
	case dataset.PowerS:
		return m.PowerS, nil
	}
	return 0, fmt.Errorf("measure: unknown metric %q", metric)
}

// MetricMap returns all metrics as a dataset-compatible map.
func (m *Metrics) MetricMap() map[dataset.Metric]float64 {
	out := make(map[dataset.Metric]float64, len(dataset.AllMetrics))
	for _, metric := range dataset.AllMetrics {
		v, err := m.Value(metric)
		if err != nil {
			panic(err) // unreachable: AllMetrics is closed
		}
		out[metric] = v
	}
	return out
}

// Options configures a measurement run.
type Options struct {
	Library *stdcell.Library // nil means stdcell.Default180nm()
	FPGA    fpga.Options
	// DedupInstances applies the single-instance rule during lowering
	// (used by internal/accounting).
	DedupInstances bool
	// Concurrency bounds the worker pool of any parallelizable step in
	// the measurement (the accounting procedure's candidate probes):
	// 0 means GOMAXPROCS, 1 forces the exact sequential path. Measured
	// metrics are identical for every value.
	Concurrency int
	// Cache, when non-nil, stores measurement results on disk keyed by
	// the design fingerprint, parameter signature, and measurement
	// options, so repeated runs skip elaboration and synthesis
	// entirely. Concurrency is deliberately excluded from the key:
	// results are identical for every worker count.
	Cache *cache.Cache
	// ElabStats, when non-nil, accumulates the session elaboration
	// cache counters of every accounting search this measurement runs
	// (subtree hits/misses/instances reused, point-probe memo
	// hits/misses). Purely observational: excluded from CacheKeyParts
	// and never affects a measured value.
	ElabStats *elab.StatsRecorder
	// Namespace, when non-empty, partitions every cache key this
	// measurement derives — component records, signature records, and
	// dependency graphs alike — into its own namespace: it is mixed
	// into CacheKeyParts, so two namespaces sharing one cache directory
	// never read each other's entries (the daemon's per-tenant
	// isolation). Results are namespace-independent — measurement is a
	// pure function of the design and the other options — and the
	// empty namespace leaves every key exactly as before.
	Namespace string
}

func (o Options) library() *stdcell.Library {
	if o.Library == nil {
		return stdcell.Default180nm()
	}
	return o.Library
}

// CacheKeyParts renders the result-determining options as stable key
// components for internal/cache: the cell library's name and the FPGA
// mapping parameters. Concurrency and the cache handle itself are
// excluded (neither changes any measured value). A non-empty Namespace
// is appended — it does not change any measured value either, but it
// must partition the key space. The empty namespace appends nothing,
// keeping every pre-namespace key bit-identical.
func (o Options) CacheKeyParts() []string {
	f := o.FPGA
	parts := []string{
		"lib=" + o.library().Name,
		fmt.Sprintf("fpga=K%d;%g;%g;%g;%g;%g", f.K, f.ClkToQ, f.LUTDelay, f.RouteDelay, f.Setup, f.RAMAccess),
		fmt.Sprintf("dedup=%t", o.DedupInstances),
	}
	if o.Namespace != "" {
		parts = append(parts, "ns="+o.Namespace)
	}
	return parts
}

// synthMetricsWS measures the synthesis-derived metrics of an
// already-synthesized result. Under a workspace the cone, LUT, and
// power kernels run their summary/arena variants, whose aggregates are
// pinned bit-identical to the fresh kernels (ws == nil, the test
// reference's path) by their package tests and the session golden
// tests.
func synthMetricsWS(res *synth.Result, opts Options, ws *Workspace) *Metrics {
	lib := opts.library()
	nl := res.Optimized
	stats := nl.Stats()
	var fanInExact int
	var mapping *fpga.Mapping
	var pw power.Estimate
	if ws != nil {
		fanInExact = cones.AnalyzeSummary(nl, &ws.cones).FanInLC
		mapping = fpga.MapWS(nl, opts.FPGA, &ws.fpga)
		pw = power.AnalyzeWS(nl, lib, mapping.FreqMHz, &ws.power)
	} else {
		fanInExact = cones.Analyze(nl).FanInLC
		mapping = fpga.Map(nl, opts.FPGA)
		pw = power.Analyze(nl, lib, mapping.FreqMHz)
	}
	areaL, areaS := lib.Areas(nl)

	return &Metrics{
		FanInLC:      mapping.LUTInputSum,
		FanInLCExact: fanInExact,
		Nets:         stats.Nets,
		Cells:        stats.Cells,
		FFs:          stats.FFs,
		FreqMHz:      mapping.FreqMHz,
		AreaL:        areaL,
		AreaS:        areaS,
		PowerD:       pw.DynamicMW,
		PowerS:       pw.StaticUW,
	}
}

// SourceOnly measures just the software metrics of one module.
func SourceOnly(design *hdl.Design, name string) (*Metrics, error) {
	mod, err := design.Module(name)
	if err != nil {
		return nil, err
	}
	sc := srcmetrics.MeasureModule(mod)
	return &Metrics{Stmts: sc.Stmts, LoC: sc.LoC}, nil
}
