package measure

import (
	"fmt"
	"runtime/metrics"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hdl"
	"repro/internal/synth"
)

const sampleSrc = `
module sample #(parameter W = 8) (input clk, input [W-1:0] a, b, output reg [W-1:0] acc);
  wire [W-1:0] s;
  assign s = a + b;
  always @(posedge clk) acc <= acc + s;
endmodule`

func sampleDesign(t *testing.T) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"s.v": sampleSrc})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// measureAt measures module top of d at the given parameter overrides:
// the synthesis-derived metrics of its flattened hierarchy plus the
// software metrics of its own source.
func measureAt(t *testing.T, d *hdl.Design, top string, overrides map[string]int64) *Metrics {
	t.Helper()
	res, err := synth.SynthesizeOpts(d, top, overrides, synth.LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := synthMetricsWS(res, Options{}, nil)
	src, err := SourceOnly(d, top)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(src)
	return m
}

// TestModuleProducesAllMetrics measures a one-module design as a
// component and requires every Table 3 metric to be populated.
func TestModuleProducesAllMetrics(t *testing.T) {
	res, err := MeasureComponent(sampleDesign(t), "sample", false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Stmts <= 0 || m.LoC <= 0 {
		t.Errorf("software metrics missing: %+v", m)
	}
	if m.Cells <= 0 || m.Nets <= 0 || m.FFs != 8 {
		t.Errorf("synthesis metrics wrong: %+v", m)
	}
	if m.FanInLC <= 0 {
		t.Errorf("FanInLC missing: %+v", m)
	}
	if m.FreqMHz <= 0 || m.AreaL <= 0 || m.AreaS <= 0 || m.PowerD <= 0 || m.PowerS <= 0 {
		t.Errorf("physical metrics missing: %+v", m)
	}
	// Every Table 3 metric must be retrievable by name.
	for _, metric := range dataset.AllMetrics {
		if _, err := m.Value(metric); err != nil {
			t.Error(err)
		}
	}
	if _, err := m.Value("bogus"); err == nil {
		t.Error("expected error for unknown metric")
	}
	mm := m.MetricMap()
	if len(mm) != len(dataset.AllMetrics) {
		t.Errorf("MetricMap size = %d", len(mm))
	}
}

func TestModuleParameterOverridesScaleMetrics(t *testing.T) {
	d := sampleDesign(t)
	small := measureAt(t, d, "sample", map[string]int64{"W": 2})
	big := measureAt(t, d, "sample", map[string]int64{"W": 32})
	if small.Cells >= big.Cells || small.FFs >= big.FFs || small.AreaL >= big.AreaL {
		t.Errorf("parameters must scale synthesis metrics: %+v vs %+v", small, big)
	}
	// Software metrics are parameter independent.
	if small.Stmts != big.Stmts || small.LoC != big.LoC {
		t.Errorf("software metrics must not depend on parameters")
	}
}

func TestAddAggregates(t *testing.T) {
	a := &Metrics{Stmts: 1, Cells: 10, FreqMHz: 100, AreaL: 5}
	b := &Metrics{Stmts: 2, Cells: 20, FreqMHz: 80, AreaL: 7}
	a.Add(b)
	if a.Stmts != 3 || a.Cells != 30 || a.AreaL != 12 {
		t.Errorf("Add result %+v", a)
	}
	if a.FreqMHz != 80 {
		t.Errorf("Freq must aggregate as min: %v", a.FreqMHz)
	}
}

func TestSourceOnly(t *testing.T) {
	m, err := SourceOnly(sampleDesign(t), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if m.Stmts != 4 {
		// parameter W + wire decl + assign + always(+assign inside) —
		// count: parameter(1)+wire(1)+assign(1)+always(1)+acc<=(1) = 5
		t.Logf("Stmts = %d", m.Stmts)
	}
	if m.Cells != 0 {
		t.Errorf("SourceOnly must not synthesize: %+v", m)
	}
	if _, err := SourceOnly(sampleDesign(t), "nosuch"); err == nil {
		t.Error("expected error")
	}
}

// heapAllocBytes reads the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestMeasureWideMultiplyAccumulate measures a W-bit
// multiply-accumulate, a three-line design whose netlist grows as W²,
// and bounds the heap each measurement allocates. An exact logic-cone
// pass in the measurement path allocated 2.08 GB at W=128 and ran out
// of memory at W=256; the metric kernels that remain stay far below
// the bound.
func TestMeasureWideMultiplyAccumulate(t *testing.T) {
	const maxAlloc = 256 << 20
	for _, w := range []int{128, 256} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			src := fmt.Sprintf(`
module mac #(parameter W = %d) (input clk, input [W-1:0] a, b, output reg [W-1:0] y);
  always @(posedge clk) y <= y + a*b;
endmodule`, w)
			d, err := hdl.ParseDesign(map[string]string{"mac.v": src})
			if err != nil {
				t.Fatal(err)
			}
			before := heapAllocBytes()
			res, err := MeasureComponent(d, "mac", false, Options{Concurrency: 1})
			alloc := heapAllocBytes() - before
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Cells <= w*w || res.Metrics.FFs != w {
				t.Errorf("metrics do not show a %d-bit multiplier: %+v", w, *res.Metrics)
			}
			t.Logf("W=%d: %d cells, %.1f MB allocated", w, res.Metrics.Cells, float64(alloc)/(1<<20))
			if alloc > maxAlloc {
				t.Errorf("measuring W=%d allocated %d MB, bound %d MB", w, alloc>>20, maxAlloc>>20)
			}
		})
	}
}
