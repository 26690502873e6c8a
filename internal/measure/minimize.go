package measure

// The parameter-minimization search of the accounting procedure's
// scaling rule (Section 2.2 of the paper) lives here so that the
// measurement Session can run it against each component's elaboration
// cache (internal/accounting delegates here) without an import cycle.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/parallel"
	"repro/internal/synth"
)

// elabMemo caches the point verdicts of one (design, module) pair
// across the minimization search. Keys are synth.ParamSignature
// strings, so two candidate maps that resolve to the same design point
// share one entry. Probes elaborate against a component-scoped subtree
// cache (sess), so a probe rebuilds only what its changed parameter
// reaches, and the final measurement's elaboration of the winning
// point is answered from the same cache.
type elabMemo struct {
	design *hdl.Design
	module string
	ref    *elab.Report
	sess   *elab.Cache

	mu      sync.Mutex
	verdict map[string]bool
	hits    int
	misses  int
}

// compatible reports whether the candidate parameter point elaborates
// to a structure compatible with the reference elaboration, memoized.
// Elaboration failures count as incompatible, as in the paper's rule
// (the smallest value must still elaborate). Subtrees whose path and
// resolved parameter binding were already elaborated against the cache
// are reused whole, so a probe costs proportional to what the
// candidate's changed parameter actually reaches.
func (m *elabMemo) compatible(cand map[string]int64) bool {
	sig := synth.ParamSignature(m.module, cand)
	m.mu.Lock()
	if v, ok := m.verdict[sig]; ok {
		m.hits++
		m.mu.Unlock()
		return v
	}
	m.misses++
	m.mu.Unlock()

	_, rep, err := elab.ElaborateOpts(m.design, m.module, cand, elab.Options{Cache: m.sess})
	ok := false
	if err == nil {
		ok, _ = m.ref.CompatibleWith(rep)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if v, seen := m.verdict[sig]; seen {
		// A concurrent probe of the same point won the race; both
		// computed the same deterministic verdict.
		return v
	}
	m.verdict[sig] = ok
	return ok
}

// counters returns the memo's hit/miss tallies.
func (m *elabMemo) counters() (hits, misses int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// MinimizeParamsN returns, for each header parameter of the module,
// the smallest value compatible with the module's reference
// elaboration (its declared defaults): no generate loop that ran
// collapses to zero iterations, no constant conditional flips its
// branch, no memory degenerates, and elaboration still succeeds.
//
// The search lowers one parameter at a time, holding the others at
// their current values, and repeats until a fixpoint (parameters may
// interact through derived expressions). Candidate probes run on a
// bounded pool (0 = GOMAXPROCS, 1 = exact sequential path); the search
// visits candidates lowest-first in batches, so the result is
// identical for every worker count.
func MinimizeParamsN(design *hdl.Design, module string, concurrency int) (map[string]int64, error) {
	params, _, err := minimizeParams(design, module, concurrency, nil)
	return params, err
}

// minimizeParams runs the search. When sess is nil a fresh session
// elaboration cache is created for this search alone; a Session passes
// its top-module group's cache, which the group's later units and
// signature syntheses then reuse. The
// minimized parameters are bit-identical either way: cached trees and
// their report fragments are themselves bit-identical to uncached
// elaboration (the internal/elab invariant), so every compatibility
// verdict — and therefore the search's landing point — is unchanged.
func minimizeParams(design *hdl.Design, module string, concurrency int, sess *elab.Cache) (map[string]int64, *elabMemo, error) {
	mod, err := design.Module(module)
	if err != nil {
		return nil, nil, err
	}
	// The session cache memoizes every subtree elaborated during this
	// search, keyed by hierarchical path and resolved parameter
	// binding. The reference
	// elaboration populates it, probes draw on it, and the final
	// elaboration of the winning point is a cache hit.
	if sess == nil {
		sess = elab.NewCache()
	}
	_, refReport, err := elab.ElaborateOpts(design, module, nil, elab.Options{Cache: sess})
	if err != nil {
		return nil, nil, fmt.Errorf("accounting: reference elaboration of %s: %w", module, err)
	}
	// Start from the declared defaults.
	current, err := defaultParams(mod)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(current))
	for n := range current {
		names = append(names, n)
	}
	sort.Strings(names)

	memo := &elabMemo{
		design:  design,
		module:  module,
		ref:     refReport,
		sess:    sess,
		verdict: map[string]bool{},
	}
	// Seed with the reference point: the defaults are compatible with
	// themselves, and if nothing minimizes, the final measurement's
	// elaboration is answered whole from the session cache.
	memo.verdict[synth.ParamSignature(module, current)] = true

	for round := 0; round < 5; round++ {
		changed := false
		for _, name := range names {
			// Candidates strictly below the current value, ascending;
			// the search keeps the lowest compatible one, exactly like
			// a sequential first-fit scan.
			var below []int64
			for _, v := range candidateValues(current[name]) {
				if v >= current[name] {
					break
				}
				below = append(below, v)
			}
			idx, err := parallel.FirstMatch(concurrency, len(below), func(i int) (bool, error) {
				cand := make(map[string]int64, len(current))
				for k, cv := range current {
					cand[k] = cv
				}
				cand[name] = below[i]
				return memo.compatible(cand), nil
			})
			if err != nil {
				return nil, nil, err
			}
			if idx >= 0 {
				current[name] = below[idx]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return current, memo, nil
}

// defaultParams resolves a module's declared parameter defaults left
// to right (defaults may reference earlier parameters), exactly as
// elaboration does.
func defaultParams(mod *hdl.Module) (map[string]int64, error) {
	params := make(map[string]int64, len(mod.Params))
	env := elab.NewEnv(nil)
	for _, p := range mod.Params {
		v, err := elab.Eval(p.Value, env)
		if err != nil {
			return nil, fmt.Errorf("accounting: default of %s.%s: %w", mod.Name, p.Name, err)
		}
		params[p.Name] = v
		if err := env.Define(p.Name, v); err != nil {
			return nil, err
		}
	}
	return params, nil
}

// candidateValues returns ascending candidate values to try for a
// parameter whose current value is cur: small integers exhaustively,
// then powers of two below it.
func candidateValues(cur int64) []int64 {
	var out []int64
	limit := cur
	if limit > 64 {
		limit = 64
	}
	for v := int64(0); v <= limit; v++ {
		out = append(out, v)
	}
	for v := int64(128); v < cur; v *= 2 {
		out = append(out, v)
	}
	return out
}
