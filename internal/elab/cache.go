package elab

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ParamSignature is the structural signature of a module under one
// resolved parameter assignment: two elaborations with equal signatures
// produce structurally identical instance subtrees and identical
// construct reports, because a module's elaboration depends only on its
// AST and its resolved parameters. internal/synth keys the
// single-instance rule by the same signature, and the session Cache
// below keys subtree memoization by it.
func ParamSignature(module string, params map[string]int64) string {
	names := make([]string, 0, len(params))
	n := len(module)
	for k := range params {
		names = append(names, k)
		n += len(k) + 2
	}
	sort.Strings(names)
	var b strings.Builder
	b.Grow(n + 8*len(names))
	b.WriteString(module)
	for _, k := range names {
		b.WriteByte(';')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(params[k], 10))
	}
	return b.String()
}

// CacheStats counts what a session Cache did: Hits is the number of
// subtree lookups served from the cache, Misses the number elaborated
// fresh (and stored), and InstancesReused the total instance count
// inside reused subtrees — the elaboration work the cache avoided.
type CacheStats struct {
	Hits, Misses    int
	InstancesReused int
}

// Sub returns the counter deltas since an earlier snapshot — how a
// batch that shares one long-lived cache (e.g. a measurement session)
// attributes activity to one span of work.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:            s.Hits - prev.Hits,
		Misses:          s.Misses - prev.Misses,
		InstancesReused: s.InstancesReused - prev.InstancesReused,
	}
}

// Cache memoizes elaborated subtrees within one measurement session
// (one design under one Options limit set — do not share a Cache
// across designs or across different MaxGenIterations/MaxInstances).
// Entries are full instance subtrees keyed by (hierarchical path,
// module, resolved parameters), each stored with its construct Report
// fragment and instance count: net names inside a lowered subtree
// embed the instance path, so a tree is only reused at the exact path
// it was built for. Across elaborations of the same top module at
// nearby parameter points the paths coincide, which is what makes a
// probe of the accounting search — and the final elaboration of the
// minimization winner — cost only the subtrees its parameters actually
// changed.
//
// Entries are immutable once stored (reports are merged by copy, trees
// are shared read-only — elaborated instances are never mutated). All
// methods are safe for concurrent use; concurrent writers of the same
// key store bit-identical values, so the first write wins.
type Cache struct {
	mu    sync.Mutex
	trees map[treeKey]*treeEntry
	stats CacheStats
}

type treeKey struct {
	path string
	sig  string
}

type treeEntry struct {
	inst  *Instance
	frag  *Report
	count int
}

// NewCache returns an empty session cache.
func NewCache() *Cache {
	return &Cache{trees: map[treeKey]*treeEntry{}}
}

// Stats returns the hit/miss/reuse tallies so far.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// lookupTree returns the memoized subtree elaborated at (path, sig).
func (c *Cache) lookupTree(path, sig string) (*treeEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.trees[treeKey{path, sig}]
	if ok {
		c.stats.Hits++
		c.stats.InstancesReused += e.count
	}
	return e, ok
}

// storeTree memoizes a freshly elaborated subtree.
func (c *Cache) storeTree(path, sig string, inst *Instance, frag *Report, count int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
	k := treeKey{path, sig}
	if _, dup := c.trees[k]; !dup {
		c.trees[k] = &treeEntry{inst: inst, frag: frag, count: count}
	}
}

// StatsRecorder aggregates elaboration-cache and probe-memo counters
// across measurement sessions (one accounting search owns one Cache;
// drivers that measure a whole corpus thread a shared recorder through
// measure.Options to report a run-wide total). Safe for concurrent use.
type StatsRecorder struct {
	mu                     sync.Mutex
	stats                  CacheStats
	probeHits, probeMisses int
}

// Add folds one session's cache stats and point-probe memo counters
// into the aggregate.
func (r *StatsRecorder) Add(s CacheStats, probeHits, probeMisses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Hits += s.Hits
	r.stats.Misses += s.Misses
	r.stats.InstancesReused += s.InstancesReused
	r.probeHits += probeHits
	r.probeMisses += probeMisses
}

// Snapshot returns the aggregated cache stats and probe counters.
func (r *StatsRecorder) Snapshot() (stats CacheStats, probeHits, probeMisses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats, r.probeHits, r.probeMisses
}
