package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// rng is splitmix64: a tiny seeded generator, so the edit script is a
// pure function of the seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// editTarget is a module the script may edit, in the file declaring it.
type editTarget struct{ File, Module string }

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\w+)`)

// editTargets lists, in file order, the modules of files that some
// measured unit instantiates (used reports them), so every edit lands
// on a module whose figures the responses carry.
func editTargets(files map[string]string, used func(module string) bool) []editTarget {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var ts []editTarget
	for _, f := range names {
		for _, m := range moduleRE.FindAllStringSubmatch(files[f], -1) {
			if used(m[1]) {
				ts = append(ts, editTarget{File: f, Module: m[1]})
			}
		}
	}
	return ts
}

// editScript is a seeded sequence of one-module edits: each step picks
// a target uniformly, so the whole history is reproducible from the
// seed and component, group-lane and library modules are edited in
// the proportion the corpus holds them.
type editScript struct {
	rng     rng
	targets []editTarget
}

func (e *editScript) next() editTarget { return e.targets[e.rng.intn(len(e.targets))] }

// editMarker starts the declarations an edit writes. Nothing reads
// them, so an edit changes a module's source, hash and statement and
// line counts but not its logic.
const editMarker = "localparam PB_EDIT"

// applyEdit rewrites module's edit markers in src with the given
// value: one marker line where the module has none or two, two where
// it has one. Every edit therefore changes the module's Stmts and LoC
// as well as its text, so a response that missed the edit differs
// from the reference.
func applyEdit(src, module string, value int) (string, error) {
	loc := regexp.MustCompile(`(?m)^module\s+` + regexp.QuoteMeta(module) + `\b`).FindStringIndex(src)
	if loc == nil {
		return "", fmt.Errorf("edit: module %s not found", module)
	}
	endRel := strings.Index(src[loc[1]:], "\nendmodule")
	if endRel < 0 {
		return "", fmt.Errorf("edit: module %s has no endmodule", module)
	}
	end := loc[1] + endRel + 1 // start of the endmodule line
	var body strings.Builder
	had := 0
	for _, line := range strings.SplitAfter(src[loc[1]:end], "\n") {
		if strings.HasPrefix(line, "  "+editMarker) {
			had++
			continue
		}
		body.WriteString(line)
	}
	lines := 1
	if had == 1 {
		lines = 2
	}
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&body, "  %s%d = %d;\n", editMarker, i, value)
	}
	return src[:loc[1]] + body.String() + src[end:], nil
}

// editState is a tenant's current sources under its edit script.
type editState struct {
	script *editScript
	files  map[string]string
	step   int
}

func newEditState(files map[string]string, targets []editTarget, seed uint64) *editState {
	cp := make(map[string]string, len(files))
	for k, v := range files {
		cp[k] = v
	}
	return &editState{script: &editScript{rng: rng{s: seed}, targets: targets}, files: cp}
}

// advance applies the next edit to the state's sources and returns
// the target it changed.
func (s *editState) advance() (editTarget, error) {
	t := s.script.next()
	s.step++
	src, err := applyEdit(s.files[t.File], t.Module, s.step)
	if err != nil {
		return t, err
	}
	s.files[t.File] = src
	return t, nil
}
