package accounting

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/measure"
)

// The cache contract: a component measured with the cache off, with a
// cold cache, and from a warm cache yields bit-identical paper-facing
// results, and a warm hit carries the optimized netlist so downstream
// timing analysis sees the identical structure.

func measureExec(t *testing.T, opts measure.Options) *Result {
	t.Helper()
	c, err := designs.ByLabel("IVM-Execute")
	if err != nil {
		t.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureComponent(d, c.Top, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCacheOffColdWarmBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	off := measureExec(t, measure.Options{})
	cold := measureExec(t, measure.Options{Cache: ch})
	warm := measureExec(t, measure.Options{Cache: ch})

	for name, got := range map[string]*Result{"cold": cold, "warm": warm} {
		if *got.Metrics != *off.Metrics {
			t.Errorf("%s metrics diverged from uncached:\n%+v\n%+v", name, *got.Metrics, *off.Metrics)
		}
		if !reflect.DeepEqual(got.MinimizedParams, off.MinimizedParams) {
			t.Errorf("%s minimized params diverged: %v vs %v", name, got.MinimizedParams, off.MinimizedParams)
		}
		if got.InstanceCount != off.InstanceCount || got.DedupedInstances != off.DedupedInstances {
			t.Errorf("%s accounting counts diverged", name)
		}
		if got.Synth == nil || got.Synth.Optimized == nil {
			t.Fatalf("%s result carries no optimized netlist", name)
		}
		if got.Synth.Optimized.Hash() != off.Synth.Optimized.Hash() {
			t.Errorf("%s optimized netlist structure diverged from uncached", name)
		}
	}

	// The component record misses once (cold) and hits once (warm).
	// The cold run also writes the signature record of the design point
	// it synthesized; the warm run never reaches it.
	ks := ch.KindStats()
	if kc := ks["component"]; kc.Misses != 1 || kc.Hits != 1 {
		t.Errorf("component-kind stats = %+v, want exactly 1 miss (cold) and 1 hit (warm)", kc)
	}
	if kc := ks["sig"]; kc.Misses != 1 || kc.Puts != 1 || kc.Hits != 0 {
		t.Errorf("sig-kind stats = %+v, want 1 miss and 1 put (cold) and no hit", kc)
	}

	// A fresh handle on the same directory must also hit: the entry is
	// content-addressed on disk, not process state.
	ch2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	again := measureExec(t, measure.Options{Cache: ch2})
	if *again.Metrics != *off.Metrics {
		t.Error("reopened cache served diverging metrics")
	}
	if s := ch2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("reopened cache stats = %+v, want pure hit", s)
	}
}

func TestCacheVerifyModePassesOnConsistentEntry(t *testing.T) {
	ch, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := measureExec(t, measure.Options{Cache: ch})
	ch.SetVerify(true)
	verified := measureExec(t, measure.Options{Cache: ch})
	if *verified.Metrics != *first.Metrics {
		t.Error("verify-mode hit diverged from original measurement")
	}
	// Verify mode recomputes and checks both entries the unit touches:
	// its signature record and its component record.
	s := ch.Stats()
	if s.VerifyChecks != 2 || s.VerifyMismatches != 0 {
		t.Errorf("stats = %+v, want 2 clean verify checks", s)
	}
}

func TestCacheCorruptedComponentEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := measureExec(t, measure.Options{Cache: ch})

	entries, err := filepath.Glob(filepath.Join(dir, "component-*.ucx"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v (err %v), want exactly one", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}

	again := measureExec(t, measure.Options{Cache: ch})
	if *again.Metrics != *first.Metrics {
		t.Error("recomputed measurement diverged after corruption")
	}
	s, kc := ch.Stats(), ch.KindStats()["component"]
	if s.DecodeErrors == 0 || kc.Misses != 2 {
		t.Errorf("stats = %+v, component-kind %+v: want the corrupt entry discarded and recomputed", s, kc)
	}
}
