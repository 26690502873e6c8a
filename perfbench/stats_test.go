package main

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestQuantileReportsSampleCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		q := quantileOf(xs, c.p)
		if q.Value != c.value || q.N != 100 || q.Beyond != c.beyond {
			t.Errorf("p%g: got %+v, want value %g, n 100, beyond %d", c.p*100, q, c.value, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Errorf("quantileOf sorted its input in place")
	}
	if q := quantileOf(nil, 0.5); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample: got %+v", q)
	}
	if got := quantileOf([]float64{7}, 0.99); got.Value != 7 || got.Beyond != 0 {
		t.Errorf("single sample: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 4}
	if r.Value() != 0.75 {
		t.Errorf("value %g, want 0.75", r.Value())
	}
	if s := r.String(); s != "0.7500 (3 / 4)" {
		t.Errorf("string %q", s)
	}
	empty := ratio{Num: 0, Den: 0}
	if empty.Value() != 0 || empty.String() != "0.0000 (0 / 0)" {
		t.Errorf("empty base: value %g, string %q", empty.Value(), empty.String())
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var err error
				if i%10 == 0 {
					err = errors.New("check failed")
				}
				tl.record(err)
			}
		}(g)
	}
	wg.Wait()
	a, f := tl.counts()
	if a != 400 || f != 40 {
		t.Errorf("attempted/failed %d/%d, want 400/40", a, f)
	}
	if ff := tl.failedFrac(); ff.Value() != 0.1 || ff.Den != 400 {
		t.Errorf("failed fraction %v", ff)
	}
	if tl.first != "check failed" {
		t.Errorf("first failure %q", tl.first)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.beginOp()
	root := tr.begin("op")
	outer := tr.begin("a.outer")
	inner := tr.begin("b.inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	tr.end(root)
	st := tr.byName()
	if st["a.outer"].Self > st["a.outer"].Total-st["b.inner"].Total+time.Microsecond {
		t.Errorf("outer self %v not total %v minus child %v", st["a.outer"].Self, st["a.outer"].Total, st["b.inner"].Total)
	}
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != root || tr.spans[inner].Op != 1 {
		t.Errorf("span links %+v", tr.spans)
	}
	cov := coverage(st, st["op"].Total)
	if v := cov.Value(); v <= 0.5 || v > 1 {
		t.Errorf("coverage %v", cov)
	}
	// A nil tracer records nothing and never panics.
	var off *tracer
	off.beginOp()
	off.end(off.begin("x"))
}
