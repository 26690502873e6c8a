package main

import (
	"math"
	"testing"
	"time"
)

// samplesAt builds a hostSpeed whose kernel took ms[i] at t0 + i × step.
func samplesAt(t0 time.Time, step time.Duration, ms ...float64) *hostSpeed {
	h := &hostSpeed{}
	for i, m := range ms {
		h.samples = append(h.samples, speedSample{at: t0.Add(time.Duration(i) * step), wallMS: m})
	}
	return h
}

func TestScaleUsesTheMedianKernelTimeAroundASegment(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// One sample every 100 ms; a slow stretch (half the reference speed)
	// from 1.0 s to 1.4 s.
	ms := make([]float64, 30)
	for i := range ms {
		ms[i] = refKernelMS
		if i >= 10 && i <= 14 {
			ms[i] = 2 * refKernelMS
		}
	}
	h := samplesAt(t0, 100*time.Millisecond, ms...)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	if f := h.scale(at(2.25), at(2.35)); f != 1 {
		t.Errorf("quiet segment: scale %g, want 1", f)
	}
	// Within 0.5 s of 1.15–1.25 s lie samples 7..17: five slow, six
	// quiet.
	if f := h.scale(at(1.15), at(1.25)); f != 1 {
		t.Errorf("segment at the slow stretch's edge: scale %g, want 1 (median quiet)", f)
	}
	// A long segment inside a long slow stretch.
	r := 2 * refKernelMS
	slow := samplesAt(t0, 100*time.Millisecond, r, r, r, r, r, r, r, r, refKernelMS)
	if f := slow.scale(at(0.05), at(0.25)); f != 0.5 {
		t.Errorf("slow segment: scale %g, want 0.5", f)
	}
}

func TestScaleKeepsTheBracketingSamples(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// Samples 10 s apart: none lies within the window of a segment
	// between them, so the samples just before and after decide.
	h := samplesAt(t0, 10*time.Second, 22, 44, 5)
	if f := h.scale(t0.Add(4*time.Second), t0.Add(5*time.Second)); f != refKernelMS/33 {
		t.Errorf("scale %g, want %g (median of 22 and 44)", f, refKernelMS/33)
	}
	if f := (&hostSpeed{}).scale(t0, t0.Add(time.Second)); f != 1 {
		t.Errorf("no samples: scale %g, want 1", f)
	}
}

func TestFinishTotalsRawAndScaledSegments(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// Samples at 0, 1, 2, 3 and 4 s: the kernel at reference speed
	// around the first segment, twice as slow around the second.
	h := samplesAt(t0, time.Second, refKernelMS, refKernelMS, 2*refKernelMS, 2*refKernelMS, 2*refKernelMS)
	r := &e2e{}
	r.addSegment(t0.Add(100*time.Millisecond), t0.Add(900*time.Millisecond), 2, 20, map[string][]float64{"op": {300, 500}})
	r.addSegment(t0.Add(3100*time.Millisecond), t0.Add(3900*time.Millisecond), 1, 10, map[string][]float64{"op": {800}, "edit": {600}})
	r.finish(h)
	if r.ops != 3 || r.units != 30 {
		t.Errorf("ops/units %d/%d, want 3/30", r.ops, r.units)
	}
	if math.Abs(r.busy-1.6) > 1e-9 || math.Abs(r.normBusy-1.2) > 1e-9 {
		t.Errorf("busy raw/scaled %g/%g, want 1.6/1.2", r.busy, r.normBusy)
	}
	want := map[string][]float64{"op": {300, 500, 400}, "edit": {300}}
	for name, xs := range want {
		if len(r.norm[name]) != len(xs) {
			t.Fatalf("%s: scaled %v, want %v", name, r.norm[name], xs)
		}
		for i := range xs {
			if math.Abs(r.norm[name][i]-xs[i]) > 1e-9 {
				t.Errorf("%s[%d]: scaled %g, want %g", name, i, r.norm[name][i], xs[i])
			}
		}
	}
	if r.raw["op"][2] != 800 {
		t.Errorf("raw latency changed: %v", r.raw["op"])
	}
}
