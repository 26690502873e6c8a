package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// quantile is one order statistic of a sample, with the sample size
// and how many samples lie above it, so a tail figure never hides how
// little data it rests on.
type quantile struct {
	P      float64 // requested quantile in (0, 1]
	Value  float64
	N      int // sample size
	Beyond int // samples strictly after the chosen rank
}

// quantileOf returns the nearest-rank p-quantile of xs (xs is not
// modified). An empty sample yields a zero quantile with N 0.
func quantileOf(xs []float64, p float64) quantile {
	q := quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	q.Value = s[rank]
	q.Beyond = len(s) - 1 - rank
	return q
}

func (q quantile) String() string {
	return fmt.Sprintf("%.4f (p%g of %d, %d beyond)", q.Value, q.P*100, q.N, q.Beyond)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a quotient reported with its base.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%g / %g)", r.Value(), r.Num, r.Den)
}

// tally counts attempted and failed operations. Safe for concurrent
// use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	first             string // first failure, for the report
}

// record counts one attempted operation; a non-nil err counts it as
// failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == "" {
			t.first = err.Error()
		}
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// failedFrac is failed operations over attempted ones.
func (t *tally) failedFrac() ratio {
	a, f := t.counts()
	return ratio{Num: float64(f), Den: float64(a)}
}
