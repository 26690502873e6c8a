// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time, checks every output against a
// reference, and prints the end-to-end metrics (--trace 0) or, from a
// separate traced run that replays the workload's inputs through each
// layer's entry points, the per-layer metrics (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; README.md lists the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark workload.
type workload interface {
	// setup generates and parses the inputs, measures the reference
	// outputs through a direct session without a disk cache, and warms
	// the process with one operation. It is timed as setup_s.
	setup() error
	// fill writes the disk cache the timed phase starts from (gen-warm,
	// served-edit). It is left out of setup_s: a cache write's cost
	// depends on the host's disk and journal — on the ext4 volume of
	// the reference host a cold 600-unit pass with the cache on took
	// between 0.54 and 1.46 s within minutes.
	fill() error
	// check runs the set-up output checks (outside setup_s).
	check(t *tally)
	// measure runs the untraced closed loop until the deadline, with a
	// speed sample from hs before the first segment and after each one,
	// and returns the finished e2e.
	measure(deadline time.Time, t *tally, hs *hostSpeed) (*e2e, error)
	// trace runs the traced run for d and returns per-layer metrics.
	trace(d time.Duration, t *tally) (*layers, error)
	// digest feeds the run's timing-free outputs into h.
	digest(h *digestWriter)
	close() error
}

// e2e is what an untraced timed phase measured: its segments and,
// after finish, their totals, raw and scaled to the reference host
// speed (hostspeed.go).
type e2e struct {
	segs           []segment
	ops, units     int                  // completed operations, measured units
	busy, normBusy float64              // seconds in segments: raw, scaled
	raw, norm      map[string][]float64 // latencies by series, ms
	extra          []reportLine         // workload-specific figures for the human report
}

// reportLine is one human-readable figure printed above the result.
type reportLine struct {
	name, unit string
	value      float64
	detail     string
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

var workloads = map[string]struct {
	make func(cfg *config) workload
	tail float64 // the op latency quantile reported as op_tail_ms
}{
	"paper-cold":  {func(c *config) workload { return &paperCold{cfg: c} }, 0.9},
	"gen-cold":    {func(c *config) workload { return &genSweep{cfg: c, warm: false} }, 0.75},
	"gen-warm":    {func(c *config) workload { return &genSweep{cfg: c, warm: true} }, 0.9},
	"served-edit": {func(c *config) workload { return &servedEdit{cfg: c} }, 0.9},
}

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // root of every file the run writes
	dir      string // this run's private directory under out
}

// spanPath is where a traced run writes its spans.
func (c *config) spanPath() string {
	return filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.tsv", c.workload, c.seed))
}

// newDir returns a fresh directory under the run's directory.
func (c *config) newDir(name string) (string, error) {
	d := filepath.Join(c.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "timed phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-work", "directory for caches and span dumps")
	flag.Parse()
	spec, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	cfg.trace = trace == 1
	cfg.dir = filepath.Join(cfg.out, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	host := hostFacts(cfg.dir)
	hj, _ := json.Marshal(host)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	fmt.Printf("host %s\n", hj)
	if !host.Comparable {
		fmt.Printf("warning: cache directory is on %s, not tmpfs: figures are not comparable with tmpfs hosts\n", host.CacheFS)
	}

	t := &tally{}
	metrics := map[string]metricValue{}
	var w workload
	var err error
	if cfg.trace {
		w = spec.make(cfg)
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := w.fill(); err != nil {
			w.close()
			return fmt.Errorf("fill: %w", err)
		}
		w.check(t)
		ls, err := w.trace(time.Duration(cfg.seconds)*time.Second, t)
		if err != nil {
			w.close()
			return err
		}
		for _, m := range perLayerNames {
			v := ls.values[m.name] // a layer the workload does not run reads 0
			metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			fmt.Printf("layer %-28s %12.6g %-7s %s\n", m.name, v, m.unit, ls.detail[m.name])
		}
	} else {
		hs := newHostSpeed()
		var setups, rawSetups []float64
		for i := 0; i < setupRepeats; i++ {
			if w != nil {
				if err := w.close(); err != nil {
					return err
				}
			}
			w = spec.make(cfg)
			hs.sample()
			start := time.Now()
			if err := w.setup(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			end := time.Now()
			hs.sample()
			rawSetups = append(rawSetups, end.Sub(start).Seconds())
			setups = append(setups, end.Sub(start).Seconds()*hs.scale(start, end))
		}
		setupSpeed := hs.String()
		if err := w.fill(); err != nil {
			w.close()
			return fmt.Errorf("fill: %w", err)
		}
		w.check(t)
		hs = newHostSpeed()
		resetPeakRSS()
		res, err := w.measure(time.Now().Add(time.Duration(cfg.seconds)*time.Second), t, hs)
		if err != nil {
			w.close()
			return err
		}
		peak := peakRSSMB()
		fmt.Printf("host speed set-up %s\n", setupSpeed)
		fmt.Printf("host speed timed %s\n", hs)
		op := res.norm["op"]
		tail := quantileOf(op, spec.tail)
		p50 := quantileOf(op, 0.5)
		rawP50, rawTail := quantileOf(res.raw["op"], 0.5), quantileOf(res.raw["op"], spec.tail)
		metrics["setup_s"] = metricValue{median(setups), "s"}
		metrics["units_per_s"] = metricValue{float64(res.units) / res.normBusy, "1/s"}
		metrics["op_p50_ms"] = metricValue{p50.Value, "ms"}
		metrics["op_tail_ms"] = metricValue{tail.Value, "ms"}
		metrics["peak_rss_mb"] = metricValue{peak, "MB"}
		lines := []reportLine{
			{"setup_s", "s", median(setups), fmt.Sprintf("median of %d scaled set-ups %v; raw %v", len(setups), fmtFloats(setups), fmtFloats(rawSetups))},
			{"ops_per_s", "1/s", float64(res.ops) / res.normBusy, fmt.Sprintf("%d operations in %.3f s scaled, %.3f s raw (%.6g/s raw)", res.ops, res.normBusy, res.busy, float64(res.ops)/res.busy)},
			{"units_per_s", "1/s", float64(res.units) / res.normBusy, fmt.Sprintf("%d units; raw %.6g/s", res.units, float64(res.units)/res.busy)},
			{"op_p50_ms", "ms", p50.Value, fmt.Sprintf("%s; raw %.4f", p50, rawP50.Value)},
			{"op_tail_ms", "ms", tail.Value, fmt.Sprintf("%s; raw %.4f", tail, rawTail.Value)},
			{"peak_rss_mb", "MB", peak, "VmHWM over the timed phase"},
		}
		lines = append(lines, res.extra...)
		ff := t.failedFrac()
		lines = append(lines, reportLine{"ops_failed_frac", "ratio", ff.Value(), ff.String()})
		for _, l := range lines {
			fmt.Printf("metric %-16s %12.6g %-5s %s\n", l.name, l.value, l.unit, l.detail)
		}
	}

	h := newDigest(cfg)
	w.digest(h)
	fmt.Printf("digest %s\n", h.sum())
	if err = w.close(); err != nil {
		return err
	}
	attempted, failed := t.counts()
	if failed > 0 {
		fmt.Printf("first failure: %s\n", t.first)
	}
	if attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// host records the facts a result is only comparable under.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CacheDir   string `json:"cache_dir"`
	CacheFS    string `json:"cache_fs"`
	Comparable bool   `json:"cache_fs_comparable"`
}

// Filesystem magic numbers (statfs f_type) of the common Linux
// filesystems.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
}

func hostFacts(dir string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CacheDir: dir, CacheFS: "unknown"}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			h.CacheFS = name
		} else {
			h.CacheFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	// Only tmpfs isolates the cache's figures from the host's disk and
	// journal; results over any other filesystem are not comparable.
	h.Comparable = h.CacheFS == "tmpfs"
	return h
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting so the
// peak covers the timed phase, not set-up. Where the kernel refuses,
// the peak includes set-up.
func resetPeakRSS() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MB (2^20 bytes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// digestWriter hashes a run's timing-free outputs: two runs with the
// same workload and seed print the same digest.
type digestWriter struct{ h hash.Hash }

func newDigest(cfg *config) *digestWriter {
	d := &digestWriter{h: sha256.New()}
	d.add(cfg.workload, cfg.seed)
	return d
}

// add hashes v's JSON encoding (maps encode with sorted keys).
func (d *digestWriter) add(vs ...any) {
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // only benchmark-built values are hashed
		}
		d.h.Write(b)
		d.h.Write([]byte{'\n'})
	}
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestOf hashes results to a short hex string.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// layers is a traced run's per-layer metrics, with a human-readable
// detail (bases, sample counts) for each.
type layers struct {
	values map[string]float64
	detail map[string]string
}

func newLayers() *layers {
	return &layers{values: map[string]float64{}, detail: map[string]string{}}
}

func (l *layers) set(name string, v float64, detail string) {
	l.values[name] = v
	l.detail[name] = detail
}

func (l *layers) setRatio(name string, r ratio) { l.set(name, r.Value(), r.String()) }
