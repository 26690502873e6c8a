package measure_test

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// sameResult fails the test unless two component measurements are
// bit-identical in everything paper-facing: the full metrics struct,
// the minimized parameters, the accounting counts, and the optimized
// netlist structure.
func sameResult(t *testing.T, label string, got, want *measure.ComponentResult) {
	t.Helper()
	if *got.Metrics != *want.Metrics {
		t.Errorf("%s: metrics differ:\n got %+v\nwant %+v", label, *got.Metrics, *want.Metrics)
	}
	if !maps.Equal(got.MinimizedParams, want.MinimizedParams) {
		t.Errorf("%s: minimized parameters differ: got %v, want %v", label, got.MinimizedParams, want.MinimizedParams)
	}
	if got.InstanceCount != want.InstanceCount {
		t.Errorf("%s: instance count %d, want %d", label, got.InstanceCount, want.InstanceCount)
	}
	if got.DedupedInstances != want.DedupedInstances {
		t.Errorf("%s: deduped %d, want %d", label, got.DedupedInstances, want.DedupedInstances)
	}
	if g, w := got.Synth.Optimized.Hash(), want.Synth.Optimized.Hash(); g != w {
		t.Errorf("%s: optimized netlist hash %s, want %s", label, g, w)
	}
}

// TestSessionMatchesPerComponentCorpus is the golden differential test
// of the batch path: every corpus component, measured with and without
// the accounting procedure through one Session over the full corpus
// design, must be bit-identical to the standalone reference pipeline
// (measureComponent, kept in the tests) on the component's own two-file
// design — at concurrency 1 and
// 8, with the disk cache off, cold, and warm. The warm batch must be
// answered entirely from disk: nothing planned, nothing synthesized,
// zero cache misses.
func TestSessionMatchesPerComponentCorpus(t *testing.T) {
	comps := designs.All()
	units := make([]measure.Unit, 0, 2*len(comps))
	for _, acct := range []bool{true, false} {
		for _, c := range comps {
			units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
		}
	}

	// Reference: the standalone per-component pipeline, each component
	// on its own parsed design, sequential, no cache.
	want := make([]*measure.ComponentResult, len(units))
	for i, c := range append(append([]designs.Component{}, comps...), comps...) {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measure.MeasureComponentReference(d, c.Top, units[i].UseAccounting, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		want[i] = res
	}

	full, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			check := func(t *testing.T, got []*measure.ComponentResult) {
				t.Helper()
				if len(got) != len(units) {
					t.Fatalf("%d results for %d units", len(got), len(units))
				}
				for i, u := range units {
					sameResult(t, fmt.Sprintf("%s(acct=%t)", u.Top, u.UseAccounting), got[i], want[i])
				}
			}

			t.Run("cache=off", func(t *testing.T) {
				sess := measure.NewSession(full)
				got, err := sess.MeasureAll(units, measure.Options{Concurrency: workers})
				if err != nil {
					t.Fatal(err)
				}
				check(t, got)
				s := sess.Stats()
				if s.Components != len(units) || s.Planned != len(units) {
					t.Errorf("stats %+v: want %d components planned", s, len(units))
				}
				if s.Synthesized+s.Shared != s.Planned {
					t.Errorf("stats %+v: synthesized+shared != planned", s)
				}
				if s.Shared == 0 {
					t.Errorf("stats %+v: the corpus has at least one shareable signature (minimization landing on defaults with no duplicate instances)", s)
				}
			})

			t.Run("cache=cold+warm", func(t *testing.T) {
				dir := t.TempDir()
				cold, err := cache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				sess := measure.NewSession(full)
				got, err := sess.MeasureAll(units, measure.Options{Concurrency: workers, Cache: cold})
				if err != nil {
					t.Fatal(err)
				}
				check(t, got)
				// Cold traffic splits by kind: every unit misses its
				// component record, and every distinct signature the
				// session synthesized misses (then writes) its "sig"
				// record.
				synthesized := int64(sess.Stats().Synthesized)
				if cs := cold.Stats(); cs.Hits != 0 || cs.Misses != int64(len(units))+synthesized {
					t.Errorf("cold cache stats %+v: want 0 hits, %d misses", cs, int64(len(units))+synthesized)
				}
				ks := cold.KindStats()
				if kc := ks["component"]; kc.Hits != 0 || kc.Misses != int64(len(units)) || kc.Puts != int64(len(units)) {
					t.Errorf("cold component-kind counters %+v: want 0/%d/%d", kc, len(units), len(units))
				}
				if kc := ks["sig"]; kc.Hits != 0 || kc.Misses != synthesized || kc.Puts != synthesized {
					t.Errorf("cold sig-kind counters %+v: want 0/%d/%d", kc, synthesized, synthesized)
				}

				// The per-component path on the same parsed design reads
				// the entries the batch just wrote.
				warm0, err := cache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				one, err := measure.MeasureComponent(full, comps[0].Top, true, measure.Options{Concurrency: 1, Cache: warm0})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, comps[0].Label()+"(per-component warm)", one, want[0])
				if cs := warm0.Stats(); cs.Hits != 1 || cs.Misses != 0 {
					t.Errorf("per-component warm read: stats %+v, want exactly one hit", cs)
				}

				warm, err := cache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				sess2 := measure.NewSession(full)
				got2, err := sess2.MeasureAll(units, measure.Options{Concurrency: workers, Cache: warm})
				if err != nil {
					t.Fatal(err)
				}
				check(t, got2)
				if s := sess2.Stats(); s.Components != len(units) || s.Planned != 0 || s.Synthesized != 0 {
					t.Errorf("warm session stats %+v: want all %d units answered from disk", s, len(units))
				}
				if cs := warm.Stats(); cs.Misses != 0 || cs.Hits != int64(len(units)) {
					t.Errorf("warm cache stats %+v: want %d hits, 0 misses", cs, len(units))
				}
			})
		})
	}
}

// TestConcurrentSessionsSharePoolOnly stresses the process-wide
// workspace pool: several goroutines each run their own private
// Sessions — nothing shared between them except the pool — with
// 8 workers, and each goroutine churns through repeated
// session-create/measure/discard cycles so workspaces are returned
// (Reset) and re-taken across session and goroutine boundaries many
// times. Every cycle must be bit-identical to a sequential reference;
// combined with `go test -race` this pins that a recycled workspace
// carries no state from its previous owner.
func TestConcurrentSessionsSharePoolOnly(t *testing.T) {
	src := map[string]string{"t.v": `
module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module pair #(parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t1, t2;
  leaf #(.W(W)) u0 (.a(a), .y(t1));
  leaf #(.W(W)) u1 (.a(b), .y(t2));
  assign y = t1 & t2;
endmodule
module top #(parameter N = 6, parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t;
  pair #(.W(W)) u (.a(a), .b(b), .y(t));
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    assign y[i%W] = t[i%W];
  end endgenerate
endmodule`}
	d, err := hdl.ParseDesign(src)
	if err != nil {
		t.Fatal(err)
	}
	units := []measure.Unit{
		{Top: "top", UseAccounting: true},
		{Top: "top", UseAccounting: false},
		{Top: "pair", UseAccounting: true},
	}
	ref := measure.NewSession(d)
	want, err := ref.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	const cycles = 3
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cycle := range cycles {
				sess := measure.NewSession(d)
				got, err := sess.MeasureAll(units, measure.Options{Concurrency: 8})
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d cycle %d: %w", g, cycle, err)
					return
				}
				for i, u := range units {
					if *got[i].Metrics != *want[i].Metrics {
						errCh <- fmt.Errorf("goroutine %d cycle %d %s(acct=%t): metrics differ:\n got %+v\nwant %+v",
							g, cycle, u.Top, u.UseAccounting, *got[i].Metrics, *want[i].Metrics)
						return
					}
					if gh, wh := got[i].Synth.Optimized.Hash(), want[i].Synth.Optimized.Hash(); gh != wh {
						errCh <- fmt.Errorf("goroutine %d cycle %d %s(acct=%t): netlist hash %s, want %s",
							g, cycle, u.Top, u.UseAccounting, gh, wh)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestSessionConcurrentMeasureAll hammers one shared Session from 8
// goroutines measuring the same batch — the configuration the race
// detector checks in CI. Every goroutine must see results identical
// to a sequential private-session reference.
func TestSessionConcurrentMeasureAll(t *testing.T) {
	src := map[string]string{"t.v": `
module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module pair #(parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t1, t2;
  leaf #(.W(W)) u0 (.a(a), .y(t1));
  leaf #(.W(W)) u1 (.a(b), .y(t2));
  assign y = t1 & t2;
endmodule
module top #(parameter N = 6, parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t;
  pair #(.W(W)) u (.a(a), .b(b), .y(t));
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    assign y[i%W] = t[i%W];
  end endgenerate
endmodule`}
	d, err := hdl.ParseDesign(src)
	if err != nil {
		t.Fatal(err)
	}
	units := []measure.Unit{
		{Top: "top", UseAccounting: true},
		{Top: "top", UseAccounting: false},
		{Top: "pair", UseAccounting: true},
		{Top: "pair", UseAccounting: false},
	}
	ref := measure.NewSession(d)
	want, err := ref.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}

	sess := measure.NewSession(d)
	const goroutines = 8
	results := make([][]*measure.ComponentResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = sess.MeasureAll(units, measure.Options{Concurrency: 2})
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, u := range units {
			sameResult(t, fmt.Sprintf("goroutine %d %s(acct=%t)", g, u.Top, u.UseAccounting), results[g][i], want[i])
		}
	}
	// All 8 goroutines planned every unit, but each distinct signature
	// was synthesized at most once across the whole session.
	s := sess.Stats()
	if s.Planned != goroutines*len(units) {
		t.Errorf("stats %+v: want %d planned", s, goroutines*len(units))
	}
	if s.Synthesized > len(units) {
		t.Errorf("stats %+v: more synthesis flights than distinct units", s)
	}
	if s.Shared != s.Planned-s.Synthesized {
		t.Errorf("stats %+v: shared != planned-synthesized", s)
	}
}

// TestMeasureAllLowestIndexError pins MeasureAll's error contract: when
// units in different top-module groups fail, the error returned is the
// lowest-index failing unit's, not the error of whichever group ran
// first. Here the "div" group (units 0 and 2) is measured before the
// "nosuch" group (unit 1), and its accounting unit fails because the
// scaling rule shrinks the divisor to 0, which lowering rejects.
func TestMeasureAllLowestIndexError(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"div.v": `
module div #(parameter D = 4) (input [7:0] a, output [7:0] y);
  assign y = a / D;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	units := []measure.Unit{
		{Top: "div", UseAccounting: false},
		{Top: "nosuch"},
		{Top: "div", UseAccounting: true},
	}
	// Each failure on its own, so the test also shows both units fail.
	for _, i := range []int{1, 2} {
		if _, err := measure.NewSession(d).MeasureAll(units[i:i+1], measure.Options{Concurrency: 1}); err == nil {
			t.Fatalf("unit %d (%+v) measured without error", i, units[i])
		}
	}
	if _, err := measure.NewSession(d).MeasureAll(units[:1], measure.Options{Concurrency: 1}); err != nil {
		t.Fatalf("unit 0: %v", err)
	}
	_, want := measure.NewSession(d).MeasureAll(units[1:2], measure.Options{Concurrency: 1})
	_, err = measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
	if err == nil || err.Error() != want.Error() {
		t.Errorf("batch error %v, want unit 1's error %v", err, want)
	}
}
