// Package rtl models the synthesized register-transfer-level design as a
// signal netlist: combinational gates (operators, multiplexers, array-read
// networks), registers, and a finite-state controller. The netlist is
// built from a schedule (package sched); it can be executed cycle-accurately
// (package rtlsim), measured (critical path and area under the delay
// model), and emitted as VHDL — the paper's output format — or Verilog.
package rtl

import (
	"fmt"
	"strconv"

	"sparkgo/internal/delay"
	"sparkgo/internal/ir"
)

// SigKind classifies signals.
type SigKind int

const (
	// SigInput is an architectural input (a global the design only
	// reads): combinationally available, externally driven.
	SigInput SigKind = iota
	// SigReg is a register output.
	SigReg
	// SigWire is a combinational gate output.
	SigWire
	// SigConst is a constant driver.
	SigConst
)

func (k SigKind) String() string {
	switch k {
	case SigInput:
		return "input"
	case SigReg:
		return "reg"
	case SigWire:
		return "wire"
	case SigConst:
		return "const"
	}
	return "?"
}

// Signal is one named net.
type Signal struct {
	ID   int
	Name string
	Type *ir.Type
	Kind SigKind
	// Const holds the value for SigConst.
	Const int64
	// Init is the reset value for SigReg (locals reset to 0; globals
	// are loaded externally before start).
	Init int64
}

func (s *Signal) String() string { return s.Name }

// GateKind classifies combinational gates.
type GateKind int

const (
	// GateBin: Out = In[0] <Bin> In[1].
	GateBin GateKind = iota
	// GateUn: Out = <Un> In[0].
	GateUn
	// GateMux: Out = In[0] ? In[1] : In[2].
	GateMux
	// GateCopy: Out = In[0] (width conversion; pure wiring).
	GateCopy
	// GateArrayRead: Out = elements[In[0]]; In[1..] are the elements.
	GateArrayRead
)

// Gate is one combinational node. Gates appear in the module in
// topological order (inputs constructed before outputs), so a single
// forward sweep evaluates the netlist.
type Gate struct {
	Out         *Signal
	Kind        GateKind
	Bin         ir.BinOp
	Un          ir.UnOp
	UnsignedOps bool
	In          []*Signal
}

// RegWrite commits Value into Reg at the end of every cycle spent in
// State. Conditional commits are already encoded in Value's mux network.
type RegWrite struct {
	Reg   *Signal
	State int
	Value *Signal
}

// Transition is an FSM edge evaluated at the end of each cycle in state
// From: taken when Cond is nil or Cond's value equals CondValue. Edges are
// tried in order; To == -1 means the design is done.
type Transition struct {
	From      int
	Cond      *Signal
	CondValue bool
	To        int
}

// Module is a complete RTL design.
type Module struct {
	Name      string
	Signals   []*Signal
	Gates     []*Gate
	RegWrites []RegWrite
	Trans     []Transition
	NumStates int

	// Architectural interface: globals by name.
	ScalarPort map[string]*Signal
	ArrayPort  map[string][]*Signal
	// RetSignal is the register holding main's return value (nil for
	// void designs).
	RetSignal *Signal

	nextID int
	consts map[string]*Signal
	memo   map[string]*Signal
	// memoStale marks a decoded module whose consts/memo tables have not
	// been rebuilt yet; ensureMemo fills them on the first construction
	// call, so decode never pays for tables a module may never use.
	memoStale bool

	// Construction arenas: signals and gates are carved from fixed-size
	// chunks instead of allocated one heap object per call — the same
	// block-allocation DecodeModule uses, applied to the build path the
	// midend re-runs per explored design point.
	// Chunks are never resliced once handed out, so the pointers stay
	// stable for the life of the module.
	sigArena  []Signal
	gateArena []Gate
}

// buildArenaChunk sizes the construction arenas: large enough that a
// typical design carves from a handful of chunks, small enough that an
// abandoned module wastes little.
const buildArenaChunk = 64

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:       name,
		ScalarPort: map[string]*Signal{},
		ArrayPort:  map[string][]*Signal{},
		consts:     map[string]*Signal{},
		memo:       map[string]*Signal{},
	}
}

func (m *Module) newSignal(name string, t *ir.Type, kind SigKind) *Signal {
	if len(m.sigArena) == 0 {
		m.sigArena = make([]Signal, buildArenaChunk)
	}
	s := &m.sigArena[0]
	m.sigArena = m.sigArena[1:]
	s.ID = m.nextID
	s.Name = name
	s.Type = t
	s.Kind = kind
	m.nextID++
	m.Signals = append(m.Signals, s)
	return s
}

// ensureMemo rebuilds the construction memo tables of a decoded module
// so it dedups constants and shares structurally identical gates
// exactly like the original would if it were extended further. Deferred
// to the first construction call because most decoded modules are only
// simulated or emitted.
func (m *Module) ensureMemo() {
	if !m.memoStale {
		return
	}
	m.memoStale = false
	for _, s := range m.Signals {
		if s.Kind == SigConst {
			m.consts[constKey(s.Const, s.Type)] = s
		}
	}
	for _, g := range m.Gates {
		m.memo[gateKey(g.Kind, g.Bin, g.Un, g.UnsignedOps, g.Out.Type, g.In)] = g.Out
	}
}

// ConstSignal returns (deduplicated) a constant driver.
func (m *Module) ConstSignal(val int64, t *ir.Type) *Signal {
	m.ensureMemo()
	val = t.Canon(val)
	key := constKey(val, t)
	if s, ok := m.consts[key]; ok {
		return s
	}
	s := m.newSignal(fmt.Sprintf("const_%d_%s", m.nextID, t), t, SigConst)
	s.Const = val
	m.consts[key] = s
	return s
}

// Input declares an architectural input signal.
func (m *Module) Input(name string, t *ir.Type) *Signal {
	return m.newSignal(name, t, SigInput)
}

// Reg declares a register with the given reset value.
func (m *Module) Reg(name string, t *ir.Type, init int64) *Signal {
	s := m.newSignal(name, t, SigReg)
	s.Init = t.Canon(init)
	return s
}

// gate adds a combinational gate with memoization: structurally identical
// gates share one output signal, which keeps the conditional-commit mux
// networks from exploding (the same guard conjunction is reused by every
// op in a basic block).
func (m *Module) gate(kind GateKind, bin ir.BinOp, un ir.UnOp, unsignedOps bool,
	t *ir.Type, name string, in ...*Signal) *Signal {
	m.ensureMemo()
	key := gateKey(kind, bin, un, unsignedOps, t, in)
	if s, ok := m.memo[key]; ok {
		return s
	}
	out := m.newSignal(fmt.Sprintf("%s_%d", name, m.nextID), t, SigWire)
	if len(m.gateArena) == 0 {
		m.gateArena = make([]Gate, buildArenaChunk)
	}
	g := &m.gateArena[0]
	m.gateArena = m.gateArena[1:]
	*g = Gate{Out: out, Kind: kind, Bin: bin, Un: un, UnsignedOps: unsignedOps, In: in}
	m.Gates = append(m.Gates, g)
	m.memo[key] = out
	return out
}

// appendTypeKey appends a structural rendering of t — kind, width,
// signedness, array shape — distinguishing exactly the types Equal
// distinguishes. The memo keys below are minted once per gate/const on
// the build AND decode hot paths, so they are built with strconv
// appends on a stack buffer; fmt rendering here was the single largest
// cost of reviving a module.
func appendTypeKey(b []byte, t *ir.Type) []byte {
	if t == nil {
		return append(b, '?')
	}
	b = strconv.AppendInt(b, int64(t.Kind), 10)
	switch t.Kind {
	case ir.KindInt:
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(t.Bits), 10)
		if t.Signed {
			b = append(b, 's')
		}
	case ir.KindArray:
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(t.Len), 10)
		b = append(b, ':')
		b = appendTypeKey(b, t.Elem)
	}
	return b
}

// constKey renders the dedup key of a constant driver; the codec
// rebuilds the const table for decoded modules with the same recipe.
func constKey(val int64, t *ir.Type) string {
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(b, val, 10)
	b = append(b, '|')
	b = appendTypeKey(b, t)
	return string(b)
}

// gateKey renders the structural-sharing memo key of a gate; the codec
// rebuilds the memo table for decoded modules with the same recipe.
func gateKey(kind GateKind, bin ir.BinOp, un ir.UnOp, unsignedOps bool,
	t *ir.Type, in []*Signal) string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(b, int64(kind), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(bin), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(un), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, unsignedOps)
	b = append(b, '|')
	b = appendTypeKey(b, t)
	for _, s := range in {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(s.ID), 10)
	}
	return string(b)
}

// Bin adds a binary-operator gate.
func (m *Module) Bin(op ir.BinOp, t *ir.Type, unsignedOps bool, a, b *Signal) *Signal {
	return m.gate(GateBin, op, 0, unsignedOps, t, "b"+opName(op), a, b)
}

// Un adds a unary-operator gate.
func (m *Module) Un(op ir.UnOp, t *ir.Type, x *Signal) *Signal {
	return m.gate(GateUn, 0, op, false, t, "u", x)
}

// Mux adds a 2:1 multiplexer.
func (m *Module) Mux(t *ir.Type, sel, a, b *Signal) *Signal {
	if a == b {
		return a
	}
	return m.gate(GateMux, 0, 0, false, t, "mux", sel, a, b)
}

// Copy adds a width-converting copy (free wiring).
func (m *Module) Copy(t *ir.Type, x *Signal) *Signal {
	if x.Type.Equal(t) {
		return x
	}
	return m.gate(GateCopy, 0, 0, false, t, "cast", x)
}

// ArrayRead adds an element-select network.
func (m *Module) ArrayRead(t *ir.Type, index *Signal, elems []*Signal) *Signal {
	in := append([]*Signal{index}, elems...)
	return m.gate(GateArrayRead, 0, 0, false, t, "aread", in...)
}

// And builds a boolean conjunction (for guard networks).
func (m *Module) And(a, b *Signal) *Signal {
	return m.Bin(ir.OpLAnd, ir.Bool, true, a, b)
}

// Not builds a boolean negation.
func (m *Module) Not(a *Signal) *Signal {
	return m.Un(ir.OpLNot, ir.Bool, a)
}

// opNames holds each binary operator's gate-name stem. One shared table:
// opName runs for every binary gate a build creates.
var opNames = [...]string{
	ir.OpAdd: "add", ir.OpSub: "sub", ir.OpMul: "mul", ir.OpDiv: "div",
	ir.OpRem: "rem", ir.OpAnd: "and", ir.OpOr: "or", ir.OpXor: "xor",
	ir.OpShl: "shl", ir.OpShr: "shr", ir.OpEq: "eq", ir.OpNe: "ne",
	ir.OpLt: "lt", ir.OpLe: "le", ir.OpGt: "gt", ir.OpGe: "ge",
	ir.OpLAnd: "land", ir.OpLOr: "lor",
}

// opName returns op's gate-name stem, "" for an operator outside the
// table.
func opName(op ir.BinOp) string {
	if op < 0 || int(op) >= len(opNames) {
		return ""
	}
	return opNames[op]
}

// Stats summarizes the module under a delay model.
func (m *Module) Stats(dm *delay.Model) delay.Report {
	depth := map[*Signal]float64{}
	for _, g := range m.Gates {
		in := 0.0
		for _, s := range g.In {
			if d := depth[s]; d > in {
				in = d
			}
		}
		depth[g.Out] = in + m.gateDelay(dm, g)
	}
	crit := 0.0
	consider := func(s *Signal) {
		if s == nil {
			return
		}
		if d := depth[s]; d > crit {
			crit = d
		}
	}
	for _, rw := range m.RegWrites {
		consider(rw.Value)
	}
	for _, tr := range m.Trans {
		consider(tr.Cond)
	}
	rep := delay.Report{CriticalPath: crit + dm.RegisterSetup()}
	for _, g := range m.Gates {
		rep.Area += m.gateArea(dm, g)
		switch g.Kind {
		case GateMux, GateArrayRead:
			rep.Muxes++
		case GateBin, GateUn:
			rep.FUs++
		}
	}
	for _, s := range m.Signals {
		if s.Kind == SigReg {
			rep.Registers++
			rep.Area += dm.RegArea(s.Type.Width())
		}
	}
	return rep
}

func (m *Module) gateDelay(dm *delay.Model, g *Gate) float64 {
	switch g.Kind {
	case GateBin:
		return dm.BinOpDelay(g.Bin, g.Out.Type)
	case GateUn:
		return dm.UnOpDelay(g.Un, g.Out.Type)
	case GateMux:
		return dm.MuxDelay(2)
	case GateCopy:
		return dm.CastDelay()
	case GateArrayRead:
		return dm.ArrayReadDelay(len(g.In) - 1)
	}
	return 0
}

func (m *Module) gateArea(dm *delay.Model, g *Gate) float64 {
	switch g.Kind {
	case GateBin:
		return dm.BinOpArea(g.Bin, g.Out.Type)
	case GateUn:
		return dm.UnOpArea(g.Un, g.Out.Type)
	case GateMux:
		return dm.MuxArea(2, g.Out.Type.Width())
	case GateCopy:
		return 0
	case GateArrayRead:
		return dm.MuxArea(len(g.In)-1, g.Out.Type.Width())
	}
	return 0
}
