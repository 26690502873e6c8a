package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed normalization. On a shared host the same code runs at
// very different speeds from one minute to the next: on the reference
// host (a 2-vCPU Intel Xeon VM, Go 1.24) a cold paper reproduction
// took 80 ms in one minute and 150 ms in the next, when the VM got one
// core's worth of CPU instead of two, and a single core's speed moved
// by up to 40% besides. Medians within a run do not help against that:
// a slow stretch outlasts a run.
//
// So the timed phase alternates with a fixed speed kernel that runs
// none of the repository's code: GOMAXPROCS goroutines, each sorting
// its own copy of a seeded slice, then one goroutine sorting an eighth
// of it. Every timed stretch of work (a segment) is scaled by
// refKernelMS over the median kernel time around it, which gives the
// stretch's duration at the reference host's quiet speed. A host that is half as fast slows the kernel and the program
// alike, and the scaled figure stays put; a program that does less work
// gets faster while the kernel does not, and the scaled figure moves.
// The kernel runs as many goroutines as measurement does, so it also
// sees a host that takes a core away. Its serial tail makes it keep
// about 1.8 of 2 cores busy, as the workloads' operations do (a cold
// paper reproduction: 145 ms of CPU in 80 ms), so losing a core slows
// it about as much as it slows them.

// refKernelMS is the speed kernel's median wall time on the reference
// host when it was quiet.
const refKernelMS = 12.0

// kernelLen is the length of each goroutine's slice.
const kernelLen = 1 << 16

// speedWindow is how far around a segment the kernel samples that
// scale it may lie.
const speedWindow = 500 * time.Millisecond

// speedSample is one run of the speed kernel.
type speedSample struct {
	at     time.Time // when the kernel ended
	wallMS float64
}

// hostSpeed runs the speed kernel and keeps its samples.
type hostSpeed struct {
	src     []float64
	bufs    [][]float64
	samples []speedSample
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{src: make([]float64, kernelLen)}
	r := rng{s: 0x5bd1e995}
	for i := range h.src {
		h.src[i] = float64(r.next())
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		h.bufs = append(h.bufs, make([]float64, kernelLen))
	}
	h.kernel() // fault the buffers in; not a sample
	return h
}

// kernel runs the speed kernel once and returns its wall time in ms.
func (h *hostSpeed) kernel() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for _, buf := range h.bufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			copy(buf, h.src)
			sort.Float64s(buf)
		}(buf)
	}
	wg.Wait()
	tail := h.bufs[0][:kernelLen/8]
	copy(tail, h.src)
	sort.Float64s(tail)
	return time.Since(start).Seconds() * 1e3
}

// sample runs the kernel and records it.
func (h *hostSpeed) sample() {
	wall := h.kernel()
	h.samples = append(h.samples, speedSample{at: time.Now(), wallMS: wall})
}

// scale returns the factor that takes a duration measured between
// start and end to the reference host's speed: refKernelMS over the
// median kernel time of the samples within speedWindow of the segment,
// always including the last sample before it and the first after it.
// Without samples the factor is 1.
func (h *hostSpeed) scale(start, end time.Time) float64 {
	var ms []float64
	before, after := -1, -1
	for i, s := range h.samples {
		if !s.at.After(start) {
			before = i
		} else if after < 0 && !s.at.Before(end) {
			after = i
		}
		if s.at.After(start.Add(-speedWindow)) && s.at.Before(end.Add(speedWindow)) {
			ms = append(ms, s.wallMS)
		}
	}
	for _, i := range []int{before, after} {
		if i >= 0 && !(h.samples[i].at.After(start.Add(-speedWindow)) && h.samples[i].at.Before(end.Add(speedWindow))) {
			ms = append(ms, h.samples[i].wallMS)
		}
	}
	if len(ms) == 0 {
		return 1
	}
	return refKernelMS / median(ms)
}

func (h *hostSpeed) String() string {
	ms := make([]float64, len(h.samples))
	for i, s := range h.samples {
		ms[i] = s.wallMS
	}
	if len(ms) == 0 {
		return "no samples"
	}
	q1, q9 := quantileOf(ms, 0.1), quantileOf(ms, 0.9)
	return fmt.Sprintf("kernel_ms median=%.4f p10=%.4f p90=%.4f n=%d ref=%.1f", median(ms), q1.Value, q9.Value, len(ms), refKernelMS)
}

// segment is one timed stretch of work between two speed samples, with
// the latencies of the operations that ran in it by series ("op" for
// every workload).
type segment struct {
	start, end time.Time
	ops, units int
	lat        map[string][]float64 // ms
}

// addSegment records a stretch of work that ran from start to end.
func (r *e2e) addSegment(start, end time.Time, ops, units int, lat map[string][]float64) {
	r.segs = append(r.segs, segment{start: start, end: end, ops: ops, units: units, lat: lat})
}

// finish totals the segments, raw and scaled to the reference speed.
func (r *e2e) finish(h *hostSpeed) {
	r.raw, r.norm = map[string][]float64{}, map[string][]float64{}
	for _, s := range r.segs {
		f := h.scale(s.start, s.end)
		d := s.end.Sub(s.start).Seconds()
		r.ops += s.ops
		r.units += s.units
		r.busy += d
		r.normBusy += d * f
		for name, xs := range s.lat {
			for _, x := range xs {
				r.raw[name] = append(r.raw[name], x)
				r.norm[name] = append(r.norm[name], x*f)
			}
		}
	}
}
