package rtl

// This file is the lossless serialization of RTL modules — the payload
// of the backend artifact cache. Signals are the module's only pointer
// currency: gates, register writes, FSM edges, and the architectural
// port maps all reference them, and both the simulator (rtlsim) and the
// HDL emitters rely on signal pointer identity, so the wire form
// references signals by their position in the Signals slice and the
// decoder interns exactly one *Signal per position.
//
// Each direction is one walk over internal/wire. The port maps are
// written name-sorted (map iteration order is random), so identical
// modules encode to identical bytes and encode(decode(x)) is
// byte-identical to x.

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"sparkgo/internal/ir"
	"sparkgo/internal/wire"
)

// moduleTag versions the RTL wire layout.
const moduleTag = "rtlmod/1"

// moduleDecodes counts DecodeModule calls — the zero-decode revival
// tests assert disk-warm sweeps only pay a backend decode when the
// simulator actually needs the netlist.
var moduleDecodes atomic.Int64

// ModuleDecodeCount reports how many modules have been decoded since
// process start.
func ModuleDecodeCount() int64 { return moduleDecodes.Load() }

// EncodeModule serializes a module losslessly into a self-contained
// byte string in the deterministic binary layout of internal/wire. The
// inverse is DecodeModule.
func EncodeModule(m *Module) ([]byte, error) {
	sigIndex := make(map[*Signal]int, len(m.Signals))
	for i, s := range m.Signals {
		sigIndex[s] = i
	}
	e := wire.NewEncoder(1024)
	sigRef := func(s *Signal) error {
		i := -1
		if s != nil {
			var ok bool
			if i, ok = sigIndex[s]; !ok {
				return fmt.Errorf("rtl: encode: reference to foreign signal %q", s.Name)
			}
		}
		e.Int(i)
		return nil
	}
	sigRefs := func(sigs []*Signal) error {
		e.Uvarint(uint64(len(sigs)))
		for _, s := range sigs {
			if err := sigRef(s); err != nil {
				return err
			}
		}
		return nil
	}

	e.Tag(moduleTag)
	e.String(m.Name)
	e.Int(m.NumStates)
	if err := sigRef(m.RetSignal); err != nil {
		return nil, err
	}
	e.Int(m.nextID)
	e.Uvarint(uint64(len(m.Signals)))
	for _, s := range m.Signals {
		e.Int(s.ID)
		e.String(s.Name)
		ir.PutType(e, s.Type)
		e.Int(int(s.Kind))
		e.Int64(s.Const)
		e.Int64(s.Init)
	}
	e.Uvarint(uint64(len(m.Gates)))
	for _, g := range m.Gates {
		if err := sigRef(g.Out); err != nil {
			return nil, err
		}
		e.Int(int(g.Kind))
		e.Int(int(g.Bin))
		e.Int(int(g.Un))
		e.Bool(g.UnsignedOps)
		if err := sigRefs(g.In); err != nil {
			return nil, err
		}
	}
	e.Uvarint(uint64(len(m.RegWrites)))
	for _, rw := range m.RegWrites {
		if err := sigRef(rw.Reg); err != nil {
			return nil, err
		}
		e.Int(rw.State)
		if err := sigRef(rw.Value); err != nil {
			return nil, err
		}
	}
	e.Uvarint(uint64(len(m.Trans)))
	for _, tr := range m.Trans {
		e.Int(tr.From)
		if err := sigRef(tr.Cond); err != nil {
			return nil, err
		}
		e.Bool(tr.CondValue)
		e.Int(tr.To)
	}
	scalars := slices.Sorted(maps.Keys(m.ScalarPort))
	e.Uvarint(uint64(len(scalars)))
	for _, name := range scalars {
		e.String(name)
		if err := sigRef(m.ScalarPort[name]); err != nil {
			return nil, err
		}
	}
	arrays := slices.Sorted(maps.Keys(m.ArrayPort))
	e.Uvarint(uint64(len(arrays)))
	for _, name := range arrays {
		e.String(name)
		if err := sigRefs(m.ArrayPort[name]); err != nil {
			return nil, err
		}
	}
	return e.Data(), nil
}

// DecodeModule reconstructs a module serialized by EncodeModule. Signal
// identity is interned — every reference to one wire position resolves
// to the same *Signal — and every reference is range-checked. The
// construction-time memo tables (constant dedup, gate structural
// sharing) rebuild lazily, so a decoded module is indistinguishable
// from a freshly built one to the simulator, the emitters, and further
// construction alike.
func DecodeModule(data []byte) (*Module, error) {
	moduleDecodes.Add(1)
	m, err := decodeModule(wire.NewDecoder(data))
	if err != nil {
		return nil, fmt.Errorf("rtl: decode: %w", err)
	}
	return m, nil
}

func decodeModule(d *wire.Decoder) (*Module, error) {
	d.Tag(moduleTag)
	m := NewModule(d.String())
	m.NumStates = d.Int()
	// The return signal precedes the signal table on the wire; it is
	// resolved once the table exists.
	ret := d.Int()
	m.nextID = d.Int()

	// Signals and gates are allocated in blocks: one malloc per kind
	// instead of one per object, which matters because decode is the
	// disk-revival hot path and the GC scans what it allocates.
	n := d.Len(7) // a signal is >= 7 bytes
	sigBlock := make([]Signal, n)
	m.Signals = make([]*Signal, n)
	for i := range sigBlock {
		s := &sigBlock[i]
		s.ID, s.Name = d.Int(), d.String()
		t, err := ir.GetType(d)
		if err != nil {
			return nil, fmt.Errorf("signal %q: %w", s.Name, err)
		}
		s.Type, s.Kind, s.Const, s.Init = t, SigKind(d.Int()), d.Int64(), d.Int64()
		m.Signals[i] = s
	}
	// fail reports a semantic error, unless a wire failure (whose zero
	// values caused it) came first.
	fail := func(format string, args ...any) error {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf(format, args...)
	}
	sigAt := func(i int) (*Signal, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(m.Signals) {
			return nil, fail("signal reference %d out of range", i)
		}
		return m.Signals[i], nil
	}
	// mustSig reads a reference that may not be nil.
	mustSig := func(what string) (*Signal, error) {
		s, err := sigAt(d.Int())
		if err == nil && s == nil {
			err = fail("%s without signal", what)
		}
		return s, err
	}
	var err error
	if m.RetSignal, err = sigAt(ret); err != nil {
		return nil, err
	}

	n = d.Len(6) // a gate is >= 6 bytes
	gateBlock := make([]Gate, n)
	m.Gates = make([]*Gate, n)
	// Every gate's input list is carved from one arena: filled as the
	// gates are read, then copied once to its exact size so the decoded
	// module does not pin the arena's growth slack.
	inArena := make([]*Signal, 0, 2*n)
	for i := range gateBlock {
		g := &gateBlock[i]
		if g.Out, err = mustSig("gate output"); err != nil {
			return nil, err
		}
		g.Kind, g.Bin, g.Un, g.UnsignedOps = GateKind(d.Int()), ir.BinOp(d.Int()), ir.UnOp(d.Int()), d.Bool()
		start := len(inArena)
		for range d.Len(1) {
			in, err := mustSig("gate input")
			if err != nil {
				return nil, err
			}
			inArena = append(inArena, in)
		}
		g.In = inArena[start:len(inArena):len(inArena)]
		m.Gates[i] = g
	}
	exact := slices.Clone(inArena)
	for _, g := range m.Gates {
		k := len(g.In)
		g.In, exact = exact[:k:k], exact[k:]
	}

	if n := d.Len(3); n > 0 { // a register write is >= 3 bytes
		m.RegWrites = make([]RegWrite, n)
		for i := range m.RegWrites {
			rw := &m.RegWrites[i]
			if rw.Reg, err = mustSig("register write"); err != nil {
				return nil, err
			}
			rw.State = d.Int()
			if rw.Value, err = mustSig("register write"); err != nil {
				return nil, err
			}
		}
	}
	if n := d.Len(4); n > 0 { // a transition is >= 4 bytes
		m.Trans = make([]Transition, n)
		for i := range m.Trans {
			tr := &m.Trans[i]
			tr.From = d.Int()
			if tr.Cond, err = sigAt(d.Int()); err != nil {
				return nil, err
			}
			tr.CondValue, tr.To = d.Bool(), d.Int()
		}
	}
	for range d.Len(2) { // a scalar port is >= 2 bytes
		name := d.String()
		if m.ScalarPort[name], err = sigAt(d.Int()); err != nil {
			return nil, err
		}
	}
	for range d.Len(2) { // an array port is >= 2 bytes
		name := d.String()
		var elems []*Signal
		if k := d.Len(1); k > 0 {
			elems = make([]*Signal, k)
			for i := range elems {
				if elems[i], err = sigAt(d.Int()); err != nil {
					return nil, err
				}
			}
		}
		m.ArrayPort[name] = elems
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	// The construction memo tables (constant dedup, structural gate
	// sharing) rebuild lazily on the first ConstSignal/gate call: most
	// decoded modules are simulated or emitted, never extended, and
	// keying every gate eagerly used to dominate decode time.
	m.memoStale = true
	return m, nil
}
