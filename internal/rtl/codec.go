package rtl

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sparkgo/internal/ir"
)

// This file is the lossless serialization of RTL modules — the payload
// of the backend artifact cache. Signals are the module's only pointer
// currency: gates, register writes, FSM edges, and the architectural
// port maps all reference them, and both the simulator (rtlsim) and the
// HDL emitters rely on signal pointer identity, so the wire form
// references signals by their position in the Signals slice and the
// decoder interns exactly one *Signal per position. The port maps are
// flattened to name-sorted slices (map iteration order is random);
// encode(decode(x)) is byte-identical to x. The binary wire framing
// lives in wirecodec.go.

// moduleDecodes counts DecodeModule calls — the zero-decode revival
// tests assert disk-warm sweeps only pay a backend decode when the
// simulator actually needs the netlist.
var moduleDecodes atomic.Int64

// ModuleDecodeCount reports how many modules have been decoded since
// process start.
func ModuleDecodeCount() int64 { return moduleDecodes.Load() }

type signalCode struct {
	ID    int
	Name  string
	Typ   ir.TypeCode
	Kind  int
	Const int64
	Init  int64
}

type gateCode struct {
	Out         int
	Kind        int
	Bin         int
	Un          int
	UnsignedOps bool
	In          []int
}

type regWriteCode struct {
	Reg   int
	State int
	Value int
}

type rtlTransCode struct {
	From      int
	Cond      int // -1 when unconditional
	CondValue bool
	To        int
}

type scalarPortCode struct {
	Name string
	Sig  int
}

type arrayPortCode struct {
	Name string
	Sigs []int
}

type moduleCode struct {
	Name      string
	NumStates int
	Signals   []signalCode
	Gates     []gateCode
	RegWrites []regWriteCode
	Trans     []rtlTransCode
	// Port maps sorted by name for deterministic bytes.
	ScalarPorts []scalarPortCode
	ArrayPorts  []arrayPortCode
	RetSignal   int // -1 for void designs
	NextID      int
}

// EncodeModule serializes a module losslessly into a self-contained
// byte string, framed by the deterministic binary codec of
// internal/wire. The inverse is DecodeModule.
func EncodeModule(m *Module) ([]byte, error) {
	mc, err := flattenModule(m)
	if err != nil {
		return nil, err
	}
	return encodeModuleWire(mc), nil
}

// flattenModule lowers the module's signal pointer web onto the
// position-interned intermediate form; both framings serialize it.
func flattenModule(m *Module) (*moduleCode, error) {
	mc := moduleCode{Name: m.Name, NumStates: m.NumStates, NextID: m.nextID}
	mc.Signals = make([]signalCode, 0, len(m.Signals))
	sigIndex := make(map[*Signal]int, len(m.Signals))
	for i, s := range m.Signals {
		sigIndex[s] = i
		mc.Signals = append(mc.Signals, signalCode{
			ID: s.ID, Name: s.Name, Typ: ir.EncodeType(s.Type),
			Kind: int(s.Kind), Const: s.Const, Init: s.Init,
		})
	}
	sigRef := func(s *Signal) (int, error) {
		if s == nil {
			return -1, nil
		}
		i, ok := sigIndex[s]
		if !ok {
			return 0, fmt.Errorf("rtl: encode: reference to foreign signal %q", s.Name)
		}
		return i, nil
	}
	totalIn := 0
	for _, g := range m.Gates {
		totalIn += len(g.In)
	}
	inArena := make([]int, 0, totalIn) // one backing array for every gate's input list
	mc.Gates = make([]gateCode, 0, len(m.Gates))
	for _, g := range m.Gates {
		gc := gateCode{Kind: int(g.Kind), Bin: int(g.Bin), Un: int(g.Un),
			UnsignedOps: g.UnsignedOps}
		var err error
		if gc.Out, err = sigRef(g.Out); err != nil {
			return nil, err
		}
		start := len(inArena)
		for _, in := range g.In {
			i, err := sigRef(in)
			if err != nil {
				return nil, err
			}
			inArena = append(inArena, i)
		}
		gc.In = inArena[start:len(inArena):len(inArena)]
		mc.Gates = append(mc.Gates, gc)
	}
	mc.RegWrites = make([]regWriteCode, 0, len(m.RegWrites))
	for _, rw := range m.RegWrites {
		ri, err := sigRef(rw.Reg)
		if err != nil {
			return nil, err
		}
		vi, err := sigRef(rw.Value)
		if err != nil {
			return nil, err
		}
		mc.RegWrites = append(mc.RegWrites, regWriteCode{Reg: ri, State: rw.State, Value: vi})
	}
	mc.Trans = make([]rtlTransCode, 0, len(m.Trans))
	for _, tr := range m.Trans {
		ci, err := sigRef(tr.Cond)
		if err != nil {
			return nil, err
		}
		mc.Trans = append(mc.Trans, rtlTransCode{
			From: tr.From, Cond: ci, CondValue: tr.CondValue, To: tr.To})
	}
	for name, s := range m.ScalarPort {
		i, err := sigRef(s)
		if err != nil {
			return nil, err
		}
		mc.ScalarPorts = append(mc.ScalarPorts, scalarPortCode{Name: name, Sig: i})
	}
	sort.Slice(mc.ScalarPorts, func(i, j int) bool {
		return mc.ScalarPorts[i].Name < mc.ScalarPorts[j].Name
	})
	for name, sigs := range m.ArrayPort {
		pc := arrayPortCode{Name: name}
		for _, s := range sigs {
			i, err := sigRef(s)
			if err != nil {
				return nil, err
			}
			pc.Sigs = append(pc.Sigs, i)
		}
		mc.ArrayPorts = append(mc.ArrayPorts, pc)
	}
	sort.Slice(mc.ArrayPorts, func(i, j int) bool {
		return mc.ArrayPorts[i].Name < mc.ArrayPorts[j].Name
	})
	var err error
	if mc.RetSignal, err = sigRef(m.RetSignal); err != nil {
		return nil, err
	}
	return &mc, nil
}

// DecodeModule reconstructs a module serialized by EncodeModule. Signal
// identity is interned — every reference to one wire position resolves
// to the same *Signal — and the construction-time memo tables (constant
// dedup, gate structural sharing) are rebuilt, so a decoded module is
// indistinguishable from a freshly built one to the simulator, the
// emitters, and further construction alike.
func DecodeModule(data []byte) (*Module, error) {
	moduleDecodes.Add(1)
	mc, err := decodeModuleWire(data)
	if err != nil {
		return nil, fmt.Errorf("rtl: decode: %w", err)
	}
	return rebuildModule(mc)
}

// rebuildModule resolves the flattened form back into a signal-interned
// module, memo tables included.
func rebuildModule(mc *moduleCode) (*Module, error) {
	m := NewModule(mc.Name)
	m.NumStates = mc.NumStates
	m.nextID = mc.NextID
	// Signals and gates are allocated in blocks: one malloc per kind
	// instead of one per object, which matters because decode is the
	// disk-revival hot path and the GC scans what it allocates.
	sigBlock := make([]Signal, len(mc.Signals))
	sigs := make([]*Signal, len(mc.Signals))
	for i, sc := range mc.Signals {
		t, err := ir.DecodeType(sc.Typ)
		if err != nil {
			return nil, fmt.Errorf("rtl: decode: signal %q: %w", sc.Name, err)
		}
		sigBlock[i] = Signal{ID: sc.ID, Name: sc.Name, Type: t,
			Kind: SigKind(sc.Kind), Const: sc.Const, Init: sc.Init}
		sigs[i] = &sigBlock[i]
	}
	m.Signals = sigs
	sigAt := func(i int) (*Signal, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(sigs) {
			return nil, fmt.Errorf("rtl: decode: signal reference %d out of range", i)
		}
		return sigs[i], nil
	}
	totalIn := 0
	for _, gc := range mc.Gates {
		totalIn += len(gc.In)
	}
	gateBlock := make([]Gate, len(mc.Gates))
	inArena := make([]*Signal, 0, totalIn)
	m.Gates = make([]*Gate, 0, len(mc.Gates))
	for gi, gc := range mc.Gates {
		g := &gateBlock[gi]
		*g = Gate{Kind: GateKind(gc.Kind), Bin: ir.BinOp(gc.Bin), Un: ir.UnOp(gc.Un),
			UnsignedOps: gc.UnsignedOps}
		var err error
		if g.Out, err = sigAt(gc.Out); err != nil {
			return nil, err
		}
		if g.Out == nil {
			return nil, fmt.Errorf("rtl: decode: gate without output signal")
		}
		start := len(inArena)
		for _, i := range gc.In {
			in, err := sigAt(i)
			if err != nil {
				return nil, err
			}
			if in == nil {
				return nil, fmt.Errorf("rtl: decode: gate with nil input signal")
			}
			inArena = append(inArena, in)
		}
		g.In = inArena[start:len(inArena):len(inArena)]
		m.Gates = append(m.Gates, g)
	}
	for _, rc := range mc.RegWrites {
		reg, err := sigAt(rc.Reg)
		if err != nil {
			return nil, err
		}
		val, err := sigAt(rc.Value)
		if err != nil {
			return nil, err
		}
		if reg == nil || val == nil {
			return nil, fmt.Errorf("rtl: decode: register write with nil signal")
		}
		m.RegWrites = append(m.RegWrites, RegWrite{Reg: reg, State: rc.State, Value: val})
	}
	for _, tc := range mc.Trans {
		cond, err := sigAt(tc.Cond)
		if err != nil {
			return nil, err
		}
		m.Trans = append(m.Trans, Transition{
			From: tc.From, Cond: cond, CondValue: tc.CondValue, To: tc.To})
	}
	for _, pc := range mc.ScalarPorts {
		s, err := sigAt(pc.Sig)
		if err != nil {
			return nil, err
		}
		m.ScalarPort[pc.Name] = s
	}
	for _, pc := range mc.ArrayPorts {
		var elems []*Signal
		for _, i := range pc.Sigs {
			s, err := sigAt(i)
			if err != nil {
				return nil, err
			}
			elems = append(elems, s)
		}
		m.ArrayPort[pc.Name] = elems
	}
	var err error
	if m.RetSignal, err = sigAt(mc.RetSignal); err != nil {
		return nil, err
	}
	// The construction memo tables (constant dedup, structural gate
	// sharing) rebuild lazily on the first ConstSignal/gate call: most
	// decoded modules are simulated or emitted, never extended, and
	// keying every gate eagerly used to dominate decode time.
	m.memoStale = true
	return m, nil
}
