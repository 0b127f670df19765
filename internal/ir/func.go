package ir

import (
	"sort"
	"strconv"
)

// Func is an IR function: the unit of behavioral description. The top-level
// function of a design (conventionally "main") describes the functional
// block itself; other functions are leaf computations that the inliner
// absorbs before scheduling.
type Func struct {
	Name   string
	Params []*Var
	Ret    *Type
	Locals []*Var // every local and temporary, including params' shadows
	Body   *Block

	tempCounter int
	// names maps each name in Locals to its first local, built by the
	// first Lookup. NewLocal, NewTemp and AddLocal keep it in step;
	// RemoveLocal and SetLocals drop it. named is len(Locals) when it
	// was last in step, so a Lookup after any other change to the
	// length of Locals rebuilds it.
	names map[string]*Var
	named int
	// nvars is the ID AddLocal gives the next local: NumberVars' count
	// plus the locals added since.
	nvars int
}

// NewFunc constructs an empty function.
func NewFunc(name string, ret *Type, params ...*Var) *Func {
	for _, p := range params {
		p.IsParam = true
	}
	return &Func{Name: name, Params: params, Ret: ret, Body: &Block{},
		Locals: append([]*Var(nil), params...)}
}

// NewLocal declares a new local variable in f with the exact given name.
func (f *Func) NewLocal(name string, t *Type) *Var {
	v := &Var{Name: name, Type: t}
	f.AddLocal(v)
	return v
}

// AddLocal appends v to f's locals and numbers it after the variables
// NumberVars numbered.
func (f *Func) AddLocal(v *Var) {
	v.ID = int32(f.nvars)
	f.nvars++
	f.Locals = append(f.Locals, v)
	if f.names != nil && f.named == len(f.Locals)-1 {
		if _, dup := f.names[v.Name]; !dup {
			f.names[v.Name] = v
		}
		f.named++
	}
}

// NumberVars gives every variable f can reference a dense ID for a pass
// over f: the globals get 0..len(globals)-1 and f's locals follow in
// order. Locals added later by AddLocal continue the numbering. It
// returns the number of IDs given. A pass calls it before it reads any
// ID, so IDs left by an earlier pass, a clone or a decoder never count.
func (f *Func) NumberVars(globals []*Var) int {
	for i, g := range globals {
		g.ID = int32(i)
	}
	n := len(globals)
	for _, v := range f.Locals {
		v.ID = int32(n)
		n++
	}
	f.nvars = n
	return n
}

// SetLocals replaces f's locals with vs.
func (f *Func) SetLocals(vs []*Var) {
	f.Locals = vs
	f.names = nil
}

// NewTemp declares a fresh synthetic temporary with a unique name derived
// from prefix. Transformation passes use this for speculation temps, wire
// variables, and inlining copies.
func (f *Func) NewTemp(prefix string, t *Type) *Var {
	for {
		f.tempCounter++
		name := prefix + "_" + strconv.Itoa(f.tempCounter)
		if f.Lookup(name) == nil {
			v := &Var{Name: name, Type: t, Synthetic: true}
			f.AddLocal(v)
			return v
		}
	}
}

// Lookup finds a local (or parameter) by name, or nil. If several
// locals share the name, it returns the first.
func (f *Func) Lookup(name string) *Var {
	if f.names == nil || f.named != len(f.Locals) {
		f.names = make(map[string]*Var, len(f.Locals))
		for _, v := range f.Locals {
			if _, dup := f.names[v.Name]; !dup {
				f.names[v.Name] = v
			}
		}
		f.named = len(f.Locals)
	}
	return f.names[name]
}

// RemoveLocal deletes v from the locals list (used by DCE once a variable
// becomes unreferenced).
func (f *Func) RemoveLocal(v *Var) {
	for i, w := range f.Locals {
		if w == v {
			f.SetLocals(append(f.Locals[:i], f.Locals[i+1:]...))
			return
		}
	}
}

// Program is a complete behavioral description: global storage plus
// functions. Globals model the block's architectural state: input buffers,
// output vectors, and any state carried between activations.
type Program struct {
	Name    string
	Globals []*Var
	Funcs   []*Func
}

// NewProgram constructs an empty program.
func NewProgram(name string) *Program { return &Program{Name: name} }

// NewGlobal declares a module-level variable.
func (p *Program) NewGlobal(name string, t *Type) *Var {
	v := &Var{Name: name, Type: t, IsGlobal: true}
	p.Globals = append(p.Globals, v)
	return v
}

// Global finds a global by name, or nil.
func (p *Program) Global(name string) *Var {
	for _, v := range p.Globals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Func finds a function by name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddFunc appends a function to the program and returns it.
func (p *Program) AddFunc(f *Func) *Func {
	p.Funcs = append(p.Funcs, f)
	return f
}

// Main returns the design's top-level function (named "main"), or the sole
// function if only one exists.
func (p *Program) Main() *Func {
	if f := p.Func("main"); f != nil {
		return f
	}
	if len(p.Funcs) == 1 {
		return p.Funcs[0]
	}
	return nil
}

// SortedGlobals returns the globals ordered by name (deterministic
// iteration for printing and RTL port ordering).
func (p *Program) SortedGlobals() []*Var {
	gs := append([]*Var(nil), p.Globals...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	return gs
}
