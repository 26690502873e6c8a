package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func testCorpus() map[string]string {
	return map[string]string{
		"gen_c0000.v":   "module gen_c0000_pipe #(parameter W = 8) (\n  input a,\n  output y\n);\n  assign y = a;\nendmodule\n",
		"gen_c0001.v":   "module gen_c0001_fifo (\n  input a,\n  output y\n);\n  assign y = ~a;\nendmodule\n",
		"gen_grp000.v":  "module gen_g00_lane (\n  input a,\n  output y\n);\n  assign y = a;\nendmodule\n",
		"gen_lib.v":     "module gl_adder (\n  input a,\n  output y\n);\n  assign y = a;\nendmodule\n\nmodule gl_mux (\n  input a,\n  output y\n);\n  assign y = a;\nendmodule\n",
		"gen_c0000b.v":  "module gen_c0000_pipe2 (\n  input a,\n  output y\n);\n  assign y = a;\nendmodule\n",
		"gen_unused.vh": "",
	}
}

func allModules(string) bool { return true }

// script runs n steps and returns every target and the final sources.
func script(files map[string]string, seed uint64, n int) ([]editTarget, map[string]string) {
	st := newEditState(files, editTargets(files, allModules), seed)
	var ts []editTarget
	for i := 0; i < n; i++ {
		t, err := st.advance()
		if err != nil {
			panic(err)
		}
		ts = append(ts, t)
	}
	return ts, st.files
}

func TestEditScriptIsDeterministic(t *testing.T) {
	files := testCorpus()
	t1, f1 := script(files, 7, 200)
	t2, f2 := script(files, 7, 200)
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(f1, f2) {
		t.Fatalf("same seed gave different edit histories")
	}
	t3, _ := script(files, 8, 200)
	if reflect.DeepEqual(t1, t3) {
		t.Errorf("seeds 7 and 8 gave the same edit history")
	}
	if !reflect.DeepEqual(files, testCorpus()) {
		t.Errorf("the edit state modified its input sources")
	}
	// Uniform over the six modules: each is picked, none far more
	// often than the others.
	picks := map[string]int{}
	for _, tg := range t1 {
		picks[tg.Module]++
	}
	if len(picks) != 6 {
		t.Errorf("edits landed on %d of 6 modules: %v", len(picks), picks)
	}
	for m, n := range picks {
		if n < 15 || n > 55 {
			t.Errorf("module %s edited %d times in 200 uniform picks", m, n)
		}
	}
}

func TestEditTargetsKeepsUsedModules(t *testing.T) {
	files := testCorpus()
	got := editTargets(files, func(m string) bool { return strings.HasPrefix(m, "gl_") || m == "gen_c0001_fifo" })
	want := []editTarget{{"gen_c0001.v", "gen_c0001_fifo"}, {"gen_lib.v", "gl_adder"}, {"gen_lib.v", "gl_mux"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("targets %v, want %v", got, want)
	}
}

func TestApplyEditAlternatesMarkerLines(t *testing.T) {
	src := testCorpus()["gen_lib.v"]
	adder := src[:strings.Index(src, "module gl_mux")]
	cur := src
	for step, want := range []int{1, 2, 1, 2} {
		next, err := applyEdit(cur, "gl_mux", step+1)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(next, editMarker); got != want {
			t.Errorf("edit %d: %d marker lines, want %d:\n%s", step+1, got, want, next)
		}
		if !strings.Contains(next, fmt.Sprintf("%s0 = %d;", editMarker, step+1)) {
			t.Errorf("edit %d did not write its value:\n%s", step+1, next)
		}
		if !strings.HasPrefix(next, adder) || !strings.HasSuffix(next, "endmodule\n") {
			t.Errorf("edit %d of gl_mux changed gl_adder or the file's end:\n%s", step+1, next)
		}
		cur = next
	}
	// A module whose name prefixes another's is found exactly.
	both := testCorpus()["gen_c0000b.v"] + "\n" + testCorpus()["gen_c0000.v"]
	pipe, err := applyEdit(both, "gen_c0000_pipe", 3)
	if err != nil || !strings.HasSuffix(pipe, editMarker+"0 = 3;\nendmodule\n") || strings.Count(pipe, editMarker) != 1 {
		t.Errorf("edit of gen_c0000_pipe: %v\n%s", err, pipe)
	}
	if _, err := applyEdit(src, "gl_missing", 1); err == nil {
		t.Errorf("editing a missing module should fail")
	}
}
