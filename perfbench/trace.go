package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one call into a layer: name, start, end, the span that made
// the call, and the operation (one replayed pass or request) it
// belongs to.
type span struct {
	ID, Parent, Op int32
	Name           string
	Start, End     time.Duration // since the tracer's epoch
}

// tracer records spans in memory for a single goroutine. A nil tracer
// records nothing, so the same replay code runs traced and untraced.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp starts a new operation: later spans carry its identifier.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// layerStats aggregates closed spans by name.
type layerStats struct {
	Calls int
	Total time.Duration // summed span durations
	Self  time.Duration // durations minus the time child spans cover
}

// byName returns per-name totals and self times. A span's self time
// is its duration minus its direct children's durations.
func (t *tracer) byName() map[string]*layerStats {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		ls.Calls++
		ls.Total += d
		ls.Self += d - child[i]
	}
	return out
}

// meanMS is the mean duration of one call of the named span, in ms.
func meanMS(stats map[string]*layerStats, name string) float64 {
	ls := stats[name]
	if ls == nil || ls.Calls == 0 {
		return 0
	}
	return ls.Total.Seconds() * 1e3 / float64(ls.Calls)
}

// coverage is the summed self time of every layer span (all spans but
// the per-operation root "op") over the traced wall time.
func coverage(stats map[string]*layerStats, wall time.Duration) ratio {
	var self time.Duration
	for name, ls := range stats {
		if name != "op" {
			self += ls.Self
		}
	}
	return ratio{Num: self.Seconds(), Den: wall.Seconds()}
}

// write dumps every span, one tab-separated line each:
// id, parent, op, name, start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Op, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
