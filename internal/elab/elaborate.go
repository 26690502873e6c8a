package elab

import (
	"fmt"
	"strconv"

	"repro/internal/hdl"
)

// Options tunes elaboration limits and subtree memoization.
type Options struct {
	// MaxGenIterations caps a single generate/procedural for loop.
	// Zero means 4096.
	MaxGenIterations int
	// MaxInstances caps the total instance count. Zero means 100000.
	MaxInstances int
	// Cache, when non-nil, memoizes elaborated subtrees across calls
	// within one measurement session: a submodule whose resolved
	// parameter binding (and, for full trees, hierarchical path) was
	// already elaborated is reused instead of rebuilt, so elaborating a
	// nearby parameter point costs proportional to what the changed
	// parameter actually touches. Results are bit-identical to uncached
	// elaboration. The cache must not be shared across designs or
	// across differing limit options.
	Cache *Cache
}

func (o Options) maxIter() int {
	if o.MaxGenIterations == 0 {
		return 4096
	}
	return o.MaxGenIterations
}

func (o Options) maxInst() int {
	if o.MaxInstances == 0 {
		return 100000
	}
	return o.MaxInstances
}

type elaborator struct {
	design *hdl.Design
	opts   Options
	// report is the fragment of the subtree currently being elaborated;
	// elaborateSubtree swaps in a fresh one per module instance so the
	// fragment can be memoized, then merges it into the enclosing one.
	report    *Report
	instCount int
	stack     []string // module names being elaborated, for cycle detection
	// stackBuf backs stack for typical hierarchy depths so pushing the
	// first module doesn't heap-allocate; stack spills past it normally.
	stackBuf [16]string
	// prefBuf is scratch for building generate-scope prefixes
	// ("g[2]."). Loop drivers rebuild it from scratch before every use,
	// so nested loops clobbering it is harmless.
	prefBuf []byte
	cache   *Cache
	// usedPaths guards full-tree reuse: a hierarchical path may only be
	// served from (or stored into) the cache once per elaboration, so a
	// design that repeats an instance name still gets distinct Instance
	// objects, exactly as uncached elaboration builds them.
	usedPaths map[string]bool
	// Chunked allocators for the per-item structs built in bulk.
	netA bump[Net]
	asgA bump[ElabAssign]
	alwA bump[ElabAlways]
	chA  bump[Child]
}

// bump is a chunked allocator for the small structs an elaboration
// creates in bulk (nets, assigns, always blocks, child links). The
// objects escape into Instance trees that live as long as the
// elaboration's output, so handing out pointers into shared chunks
// trades one heap allocation per object for one per 256; chunks are
// never reset or reused.
type bump[T any] struct {
	chunk []T
	next  int // size of the next chunk; grows geometrically
}

func (b *bump[T]) new() *T {
	if len(b.chunk) == 0 {
		// Start small: most elaborations (per-probe module stamps) need
		// only a handful of objects, so a large fixed chunk would waste
		// more than individual allocation saves. Double up to a cap so
		// big designs still amortize to one allocation per 256 objects.
		if b.next == 0 {
			b.next = 8
		} else if b.next < 256 {
			b.next *= 2
		}
		b.chunk = make([]T, b.next)
	}
	p := &b.chunk[0]
	b.chunk = b.chunk[1:]
	return p
}

// Elaborate builds the elaborated instance tree of module top with the
// given parameter overrides (nil for defaults) and returns it together
// with the construct report used by the scaling rule.
func Elaborate(design *hdl.Design, top string, overrides map[string]int64) (*Instance, *Report, error) {
	return ElaborateOpts(design, top, overrides, Options{})
}

// ElaborateOpts is Elaborate with explicit limits and an optional
// session cache.
func ElaborateOpts(design *hdl.Design, top string, overrides map[string]int64, opts Options) (*Instance, *Report, error) {
	m, err := design.Module(top)
	if err != nil {
		return nil, nil, err
	}
	el := &elaborator{design: design, opts: opts, report: NewReport(), cache: opts.Cache}
	el.stack = el.stackBuf[:0]
	params := map[string]int64{}
	// Resolve header parameters left to right: defaults may reference
	// earlier parameters; overrides replace defaults.
	env := NewEnv(nil)
	for _, p := range m.Params {
		var v int64
		if ov, ok := overrides[p.Name]; ok {
			v = ov
		} else {
			v, err = Eval(p.Value, env)
			if err != nil {
				return nil, nil, fmt.Errorf("elab: default of parameter %s.%s: %w", top, p.Name, err)
			}
		}
		params[p.Name] = v
		if err := env.Define(p.Name, v); err != nil {
			return nil, nil, err
		}
	}
	for name := range overrides {
		if _, ok := params[name]; !ok {
			return nil, nil, fmt.Errorf("elab: module %s has no parameter %q", top, name)
		}
	}
	var sig string
	if el.cache != nil {
		sig = ParamSignature(top, params)
		if e, ok := el.cache.lookupTree(top, sig); ok {
			return e.inst, e.frag, nil
		}
		el.usedPaths = map[string]bool{top: true}
	}
	inst, frag, count, err := el.elaborateSubtree(m, top, params)
	if err != nil {
		return nil, nil, err
	}
	if el.cache != nil {
		el.cache.storeTree(top, sig, inst, frag, count)
	}
	return inst, frag, nil
}

// elaborateSubtree elaborates module m at path into a fresh report
// fragment, merges the fragment into the enclosing report, and returns
// it together with the subtree's instance count so both can be
// memoized by the session cache. Without a cache there is nothing to
// memoize, so the subtree records straight into the enclosing report
// — the uncached path pays no fragment bookkeeping.
func (el *elaborator) elaborateSubtree(m *hdl.Module, path string, params map[string]int64) (*Instance, *Report, int, error) {
	if el.cache == nil {
		count0 := el.instCount
		inst, err := el.elaborateModule(m, path, params)
		if err != nil {
			return nil, nil, 0, err
		}
		return inst, el.report, el.instCount - count0, nil
	}
	outer := el.report
	frag := NewReport()
	el.report = frag
	count0 := el.instCount
	inst, err := el.elaborateModule(m, path, params)
	el.report = outer
	if err != nil {
		return nil, nil, 0, err
	}
	outer.mergeFrom(frag)
	return inst, frag, el.instCount - count0, nil
}

// reuseInstances accounts for the instances of a memoized subtree
// against the global limit, exactly as elaborating it fresh would.
func (el *elaborator) reuseInstances(count int, path string) error {
	el.instCount += count
	if el.instCount > el.opts.maxInst() {
		return fmt.Errorf("elab: instance limit %d exceeded at %s", el.opts.maxInst(), path)
	}
	return nil
}

func (el *elaborator) elaborateModule(m *hdl.Module, path string, params map[string]int64) (*Instance, error) {
	for _, name := range el.stack {
		if name == m.Name {
			return nil, fmt.Errorf("elab: recursive instantiation of module %q (%v)", m.Name, el.stack)
		}
	}
	el.stack = append(el.stack, m.Name)
	defer func() { el.stack = el.stack[:len(el.stack)-1] }()

	el.instCount++
	if el.instCount > el.opts.maxInst() {
		return nil, fmt.Errorf("elab: instance limit %d exceeded at %s", el.opts.maxInst(), path)
	}

	// Pre-size Nets and Children from an exact count of the
	// directly-declared items, so small leaf modules — the bulk of what
	// probe elaborations stamp — get single-bucket maps and no append
	// growth (generate-stamped extras beyond the count amortize
	// normally). Mems, IntVars, and Genvars allocate lazily on first
	// insert — most instances have none of the three, and map reads on
	// nil are fine.
	nChild, nDecl := 0, 0
	for _, it := range m.Items {
		switch d := it.(type) {
		case *hdl.Instance:
			nChild++
		case *hdl.NetDecl:
			nDecl += len(d.Names)
		}
	}
	inst := &Instance{
		Module: m,
		Path:   path,
		Params: params,
		Nets:   make(map[string]*Net, len(m.Ports)+nDecl),
	}
	if nChild > 0 {
		inst.Children = make([]*Child, 0, nChild)
	}
	env := NewEnv(params)

	// Ports become nets.
	for _, p := range m.Ports {
		w, lsb, err := el.evalRange(p.Range, env, p.Pos)
		if err != nil {
			return nil, &portError{path: path, port: p.Name, err: err}
		}
		if _, dup := inst.Nets[p.Name]; dup {
			return nil, fmt.Errorf("elab: duplicate port %s.%s", path, p.Name)
		}
		kind := hdl.KindWire
		if p.IsReg {
			kind = hdl.KindReg
		}
		n := el.netA.new()
		*n = Net{Name: p.Name, Width: w, LSB: lsb, Kind: kind, IsPort: true, Dir: p.Dir, Pos: p.Pos}
		inst.Nets[p.Name] = n
	}

	if err := el.elaborateItems(inst, m.Items, env); err != nil {
		return nil, err
	}
	if err := el.validateRanges(inst); err != nil {
		return nil, err
	}
	return inst, nil
}

// evalRange returns (width, lsb) for a range (nil = scalar 1-bit).
func (el *elaborator) evalRange(r *hdl.Range, env *Env, pos hdl.Pos) (int, int64, error) {
	if r == nil {
		return 1, 0, nil
	}
	msb, err := Eval(r.MSB, env)
	if err != nil {
		return 0, 0, err
	}
	lsb, err := Eval(r.LSB, env)
	if err != nil {
		return 0, 0, err
	}
	if msb < lsb {
		return 0, 0, &rangeError{pos: pos, msb: msb, lsb: lsb}
	}
	w := msb - lsb + 1
	if w > 4096 {
		return 0, 0, &rangeError{pos: pos, msb: msb, lsb: lsb, tooWide: true}
	}
	return int(w), lsb, nil
}

func (el *elaborator) elaborateItems(inst *Instance, items []hdl.Item, env *Env) error {
	for _, it := range items {
		if err := el.elaborateItem(inst, it, env); err != nil {
			return err
		}
	}
	return nil
}

func (el *elaborator) elaborateItem(inst *Instance, it hdl.Item, env *Env) error {
	switch v := it.(type) {
	case *hdl.ParamDecl:
		val, err := Eval(v.Value, env)
		if err != nil {
			return fmt.Errorf("elab: %s %s in %s: %w", kindWord(v), v.Name, inst.Path, err)
		}
		return env.Define(v.Name, val)

	case *hdl.NetDecl:
		switch v.Kind {
		case hdl.KindGenvar:
			if inst.Genvars == nil {
				inst.Genvars = map[string]bool{}
			}
			for _, n := range v.Names {
				inst.Genvars[n] = true
			}
			return nil
		case hdl.KindInteger:
			if inst.IntVars == nil {
				inst.IntVars = map[string]bool{}
			}
			for _, n := range v.Names {
				inst.IntVars[n] = true
			}
			return nil
		}
		w, lsb, err := el.evalRange(v.Range, env, v.Pos)
		if err != nil {
			return fmt.Errorf("elab: declaration in %s: %w", inst.Path, err)
		}
		if v.ArrayRange != nil {
			a, err := Eval(v.ArrayRange.MSB, env)
			if err != nil {
				return err
			}
			b, err := Eval(v.ArrayRange.LSB, env)
			if err != nil {
				return err
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo < 0 {
				return fmt.Errorf("elab: %s: memory %s has negative bound [%d:%d]", v.Pos, v.Names[0], a, b)
			}
			depth := hi - lo + 1
			if depth > 1<<20 {
				return fmt.Errorf("elab: %s: memory %s too deep (%d)", v.Pos, v.Names[0], depth)
			}
			name := env.Prefix() + v.Names[0]
			if _, dup := inst.Mems[name]; dup {
				return fmt.Errorf("elab: duplicate memory %s in %s", name, inst.Path)
			}
			el.report.recordMem(v.Pos, depth)
			if inst.Mems == nil {
				inst.Mems = map[string]*Mem{}
			}
			inst.Mems[name] = &Mem{Name: name, Width: w, Depth: depth, MinIdx: lo, Pos: v.Pos}
			return nil
		}
		for _, n := range v.Names {
			full := env.Prefix() + n
			if _, dup := inst.Nets[full]; dup {
				return fmt.Errorf("elab: duplicate net %s in %s", full, inst.Path)
			}
			nn := el.netA.new()
			*nn = Net{Name: full, Width: w, LSB: lsb, Kind: v.Kind, Pos: v.Pos}
			inst.Nets[full] = nn
		}
		return nil

	case *hdl.ContAssign:
		a := el.asgA.new()
		*a = ElabAssign{Item: v, Env: env}
		inst.Assigns = append(inst.Assigns, a)
		return nil

	case *hdl.AlwaysBlock:
		ab := el.alwA.new()
		*ab = ElabAlways{Item: v, Env: env}
		inst.Alwayses = append(inst.Alwayses, ab)
		// Walk the body for the construct signature (constant
		// conditionals, loop trip counts).
		return el.signStmt(inst, v.Body, env)

	case *hdl.Instance:
		return el.elaborateInstance(inst, v, env)

	case *hdl.GenFor:
		return el.elaborateGenFor(inst, v, env)

	case *hdl.GenIf:
		return el.elaborateGenIf(inst, v, env)
	}
	return fmt.Errorf("elab: unsupported item %T in %s", it, inst.Path)
}

func kindWord(p *hdl.ParamDecl) string {
	if p.IsLocal {
		return "localparam"
	}
	return "parameter"
}

func (el *elaborator) elaborateInstance(parent *Instance, v *hdl.Instance, env *Env) error {
	child, err := el.design.Module(v.ModuleName)
	if err != nil {
		return fmt.Errorf("elab: instance %s.%s: %w", parent.Path, v.Name, err)
	}
	// Resolve child parameters: defaults (left to right, in the child's
	// own growing env) overridden by explicit bindings evaluated in the
	// parent scope. Declared-name checks are linear scans — parameter
	// and port lists are short, and the maps they replace dominated this
	// function's allocation profile.
	var overrides map[string]int64
	if len(v.Params) > 0 {
		overrides = make(map[string]int64, len(v.Params))
	}
	for _, b := range v.Params {
		declared := false
		for _, p := range child.Params {
			if p.Name == b.Name {
				declared = true
				break
			}
		}
		if !declared {
			return fmt.Errorf("elab: %s: module %s has no parameter %q", b.Pos, child.Name, b.Name)
		}
		if b.Value == nil {
			return fmt.Errorf("elab: %s: parameter binding %q has no value", b.Pos, b.Name)
		}
		val, err := Eval(b.Value, env)
		if err != nil {
			return fmt.Errorf("elab: parameter %s of %s.%s: %w", b.Name, parent.Path, v.Name, err)
		}
		overrides[b.Name] = val
	}
	params := make(map[string]int64, len(child.Params))
	childEnv := NewEnv(nil)
	for _, p := range child.Params {
		var val int64
		if ov, ok := overrides[p.Name]; ok {
			val = ov
		} else {
			val, err = Eval(p.Value, childEnv)
			if err != nil {
				return fmt.Errorf("elab: default of %s.%s: %w", child.Name, p.Name, err)
			}
		}
		params[p.Name] = val
		if err := childEnv.Define(p.Name, val); err != nil {
			return err
		}
	}
	// Check port binding names.
	for _, b := range v.Ports {
		found := false
		for _, p := range child.Ports {
			if p.Name == b.Name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("elab: %s: module %s has no port %q", b.Pos, child.Name, b.Name)
		}
	}
	name := env.Prefix() + v.Name
	childPath := parent.Path + "." + name
	// Session-cache reuse. Bypassed when the child module is already on
	// the elaboration stack: a memoized fragment from a non-recursive
	// context must not mask the recursive-instantiation error a fresh
	// elaboration would raise here.
	var sig string
	cacheable := el.cache != nil
	if cacheable {
		for _, mod := range el.stack {
			if mod == child.Name {
				cacheable = false
				break
			}
		}
	}
	if cacheable {
		sig = ParamSignature(child.Name, params)
		if el.usedPaths[childPath] {
			// A repeated hierarchical path must stay a distinct tree.
			cacheable = false
		} else {
			el.usedPaths[childPath] = true
			if e, ok := el.cache.lookupTree(childPath, sig); ok {
				el.report.mergeFrom(e.frag)
				if err := el.reuseInstances(e.count, childPath); err != nil {
					return err
				}
				ch := el.chA.new()
				*ch = Child{Name: name, Ports: v.Ports, Env: env, Inst: e.inst, Pos: v.Pos}
				parent.Children = append(parent.Children, ch)
				return nil
			}
		}
	}
	var childInst *Instance
	var err2 error
	if !cacheable {
		// Nothing will be stored (no cache, a recursion-stack bypass, or
		// a repeated path), so skip the fragment bookkeeping and record
		// straight into the enclosing report.
		childInst, err2 = el.elaborateModule(child, childPath, params)
		if err2 != nil {
			return err2
		}
	} else {
		var frag *Report
		var count int
		childInst, frag, count, err2 = el.elaborateSubtree(child, childPath, params)
		if err2 != nil {
			return err2
		}
		el.cache.storeTree(childPath, sig, childInst, frag, count)
	}
	ch := el.chA.new()
	*ch = Child{
		Name:  name,
		Ports: v.Ports,
		Env:   env,
		Inst:  childInst,
		Pos:   v.Pos,
	}
	parent.Children = append(parent.Children, ch)
	return nil
}

func (el *elaborator) elaborateGenFor(inst *Instance, v *hdl.GenFor, env *Env) error {
	if !inst.Genvars[v.Var] {
		return fmt.Errorf("elab: %s: generate loop variable %q is not a declared genvar", v.Pos, v.Var)
	}
	val, err := Eval(v.Init, env)
	if err != nil {
		return fmt.Errorf("elab: generate for init in %s: %w", inst.Path, err)
	}
	label := v.Label
	trips := int64(0)
	// One map-free iteration scope is reused across trips for the
	// condition/step evaluations (they never capture it); each body gets
	// its own scope since its prefix differs and items retain it.
	iter := env.ChildVar("", v.Var, val)
	pref := el.prefBuf
	for {
		iter.setVar(val)
		cond, err := Eval(v.Cond, iter)
		if err != nil {
			return fmt.Errorf("elab: generate for condition in %s: %w", inst.Path, err)
		}
		if cond == 0 {
			break
		}
		trips++
		if trips > int64(el.opts.maxIter()) {
			return fmt.Errorf("elab: %s: generate loop exceeds %d iterations", v.Pos, el.opts.maxIter())
		}
		// Rebuilt from parts every trip (not hoisted) so a nested
		// generate loop clobbering the shared prefix scratch is harmless.
		if label != "" {
			pref = append(pref[:0], label...)
		} else {
			pref = append(pref[:0], "_gf"...)
			pref = strconv.AppendInt(pref, int64(v.Pos.Line), 10)
			pref = append(pref, '_')
			pref = strconv.AppendInt(pref, int64(v.Pos.Col), 10)
		}
		pref = append(pref, '[')
		pref = strconv.AppendInt(pref, val, 10)
		pref = append(pref, ']', '.')
		bodyEnv := env.ChildVar(string(pref), v.Var, val)
		if err := el.elaborateItems(inst, v.Body, bodyEnv); err != nil {
			return err
		}
		next, err := Eval(v.Step, iter)
		if err != nil {
			return fmt.Errorf("elab: generate for step in %s: %w", inst.Path, err)
		}
		if next == val {
			return fmt.Errorf("elab: %s: generate loop does not advance (%s stuck at %d)", v.Pos, v.Var, val)
		}
		val = next
	}
	el.prefBuf = pref
	el.report.recordLoop("genfor", v.Pos, trips)
	return nil
}

func (el *elaborator) elaborateGenIf(inst *Instance, v *hdl.GenIf, env *Env) error {
	cond, err := Eval(v.Cond, env)
	if err != nil {
		return fmt.Errorf("elab: generate if condition in %s: %w", inst.Path, err)
	}
	if cond != 0 {
		el.report.recordBranch("genif", v.Pos, "then")
		branchEnv := env
		if v.ThenLabel != "" {
			branchEnv = env.Child(v.ThenLabel+".", nil)
		}
		return el.elaborateItems(inst, v.Then, branchEnv)
	}
	el.report.recordBranch("genif", v.Pos, "else")
	if len(v.Else) == 0 {
		return nil
	}
	branchEnv := env
	if v.ElseLabel != "" {
		branchEnv = env.Child(v.ElseLabel+".", nil)
	}
	return el.elaborateItems(inst, v.Else, branchEnv)
}

// signStmt walks a behavioral statement recording the construct
// signature: which branch constant conditionals take and whether loops
// run. Signal-dependent conditionals are recorded as NonConst and both
// branches are walked.
func (el *elaborator) signStmt(inst *Instance, s hdl.Stmt, env *Env) error {
	switch v := s.(type) {
	case *hdl.Block:
		for _, sub := range v.Stmts {
			if err := el.signStmt(inst, sub, env); err != nil {
				return err
			}
		}
		return nil
	case *hdl.Assign:
		return nil
	case *hdl.If:
		if c, err := Eval(v.Cond, env); err == nil {
			arm := "else"
			if c != 0 {
				arm = "then"
			}
			el.report.recordBranch("if", v.Pos, arm)
			if c != 0 {
				return el.signStmt(inst, v.Then, env)
			}
			if v.Else != nil {
				return el.signStmt(inst, v.Else, env)
			}
			return nil
		}
		el.report.recordNonConst("if", v.Pos)
		if err := el.signStmt(inst, v.Then, env); err != nil {
			return err
		}
		if v.Else != nil {
			return el.signStmt(inst, v.Else, env)
		}
		return nil
	case *hdl.Case:
		if subj, err := Eval(v.Subject, env); err == nil {
			// Constant subject: find the matching arm (labels must be
			// constant to match).
			armName := "default"
			var body hdl.Stmt
			for i, item := range v.Items {
				if item.Exprs == nil {
					if body == nil {
						body = item.Body
					}
					continue
				}
				for _, le := range item.Exprs {
					lv, lerr := Eval(le, env)
					if lerr == nil && lv == subj {
						armName = fmt.Sprintf("arm%d", i)
						body = item.Body
						break
					}
				}
				if armName != "default" {
					break
				}
			}
			el.report.recordBranch("case", v.Pos, armName)
			if body != nil {
				return el.signStmt(inst, body, env)
			}
			return nil
		}
		el.report.recordNonConst("case", v.Pos)
		for _, item := range v.Items {
			if err := el.signStmt(inst, item.Body, env); err != nil {
				return err
			}
		}
		return nil
	case *hdl.For:
		trips, err := el.forTripCount(inst, v, env)
		if err != nil {
			// Loop bounds must be constant for synthesis; report the
			// error lazily (synthesis will reject it too) but keep the
			// signature walk going.
			el.report.recordNonConst("for", v.Pos)
			return el.signStmt(inst, v.Body, env)
		}
		el.report.recordLoop("for", v.Pos, trips)
		return el.signStmt(inst, v.Body, env)
	}
	return nil
}

// forTripCount evaluates the trip count of a constant-bound procedural
// for loop.
func (el *elaborator) forTripCount(inst *Instance, v *hdl.For, env *Env) (int64, error) {
	initA, ok := v.Init.(*hdl.Assign)
	if !ok {
		return 0, fmt.Errorf("for init is not an assignment")
	}
	stepA, ok := v.Step.(*hdl.Assign)
	if !ok {
		return 0, fmt.Errorf("for step is not an assignment")
	}
	ident, ok := initA.LHS.(*hdl.Ident)
	if !ok {
		return 0, fmt.Errorf("for loop variable is not a simple identifier")
	}
	val, err := Eval(initA.RHS, env)
	if err != nil {
		return 0, err
	}
	trips := int64(0)
	iter := env.ChildVar("", ident.Name, val)
	for {
		iter.setVar(val)
		c, err := Eval(v.Cond, iter)
		if err != nil {
			return 0, err
		}
		if c == 0 {
			return trips, nil
		}
		trips++
		if trips > int64(el.opts.maxIter()) {
			return 0, fmt.Errorf("for loop exceeds %d iterations", el.opts.maxIter())
		}
		next, err := Eval(stepA.RHS, iter)
		if err != nil {
			return 0, err
		}
		if next == val {
			return 0, fmt.Errorf("for loop does not advance")
		}
		val = next
	}
}
