package elab

import (
	"fmt"
	"sort"

	"repro/internal/hdl"
)

// Net is a concretely-sized signal of an elaborated instance.
type Net struct {
	Name   string // fully scoped name, e.g. "g[2].t"
	Width  int
	LSB    int64 // declared LSB index, for bit-position arithmetic
	Kind   hdl.NetKind
	IsPort bool
	Dir    hdl.PortDir
	Pos    hdl.Pos
}

// Mem is a concretely-sized memory array (reg [W-1:0] m [A:B]).
type Mem struct {
	Name   string
	Width  int
	Depth  int64
	MinIdx int64
	Pos    hdl.Pos
}

// ElabAssign is a continuous assignment plus the scope it appeared in.
type ElabAssign struct {
	Item *hdl.ContAssign
	Env  *Env
}

// ElabAlways is an always block plus the scope it appeared in.
type ElabAlways struct {
	Item *hdl.AlwaysBlock
	Env  *Env
}

// Child is an elaborated submodule instantiation.
type Child struct {
	Name  string // scoped instance name, e.g. "g[1].u0"
	Ports []hdl.Binding
	Env   *Env // scope the port expressions evaluate in (parent side)
	Inst  *Instance
	Pos   hdl.Pos
}

// Instance is one elaborated module instance.
type Instance struct {
	Module   *hdl.Module
	Path     string // hierarchical path from the top ("top.u0.g[1].u")
	Params   map[string]int64
	Nets     map[string]*Net
	Mems     map[string]*Mem
	IntVars  map[string]bool // integer variables (loop indices)
	Genvars  map[string]bool
	Assigns  []*ElabAssign
	Alwayses []*ElabAlways
	Children []*Child
}

// ResolveNet finds the net visible as name from scope env: the
// innermost generate-scope prefix that declares it wins.
func (inst *Instance) ResolveNet(name string, env *Env) (*Net, bool) {
	for _, p := range env.Prefixes() {
		if n, ok := inst.Nets[p+name]; ok {
			return n, true
		}
	}
	return nil, false
}

// ResolveMem finds the memory visible as name from scope env.
func (inst *Instance) ResolveMem(name string, env *Env) (*Mem, bool) {
	for _, p := range env.Prefixes() {
		if m, ok := inst.Mems[p+name]; ok {
			return m, true
		}
	}
	return nil, false
}

// IsIntVar reports whether name is an integer loop variable.
func (inst *Instance) IsIntVar(name string) bool { return inst.IntVars[name] }

// PortNets returns the nets of the instance's ports, in declaration
// order.
func (inst *Instance) PortNets() []*Net {
	out := make([]*Net, 0, len(inst.Module.Ports))
	for _, p := range inst.Module.Ports {
		if n, ok := inst.Nets[p.Name]; ok {
			out = append(out, n)
		}
	}
	return out
}

// SortedNetNames returns all net names sorted, for deterministic
// iteration.
func (inst *Instance) SortedNetNames() []string {
	names := make([]string, 0, len(inst.Nets))
	for n := range inst.Nets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CountInstances returns the total number of instances in the subtree
// rooted at inst (including itself).
func (inst *Instance) CountInstances() int {
	n := 1
	for _, c := range inst.Children {
		n += c.Inst.CountInstances()
	}
	return n
}

// String returns a short description for diagnostics.
func (inst *Instance) String() string {
	return fmt.Sprintf("%s(%s)", inst.Path, inst.Module.Name)
}
