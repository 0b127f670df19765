package sched

// This file is the lossless serialization of schedule plans: the
// scheduler's decisions, which the midend artifact persists after the
// program it lowered. The graph a plan is layered over does not travel.
// Lowering is a deterministic function of the program, so the reader
// lowers the program again and DecodePlan attaches the decisions to that
// graph. Ops travel as op IDs, which htg.Lower numbers 0..n-1 in AllOps
// order, and variables as indices into the graph's VarTable. What the
// scheduler only reports (arrival and finish times, per-state critical
// paths, the dependence graph it scheduled over) is not part of a Plan
// and does not travel.
//
// Each direction is one walk over internal/wire. The two maps in Plan
// (VarClass, ReentrantStates) are written as index-ordered lists: map
// iteration order is random, and the codec's contract is that
// encode(decode(x)) is byte-identical to x.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/wire"
)

// planTag versions the plan wire layout.
const planTag = "sched/3"

// planDecodes counts DecodePlan calls — the zero-decode revival tests
// assert disk-warm sweeps never pay a midend decode.
var planDecodes atomic.Int64

// PlanDecodeCount reports how many plans have been decoded since
// process start.
func PlanDecodeCount() int64 { return planDecodes.Load() }

// EncodePlan serializes a plan's decisions losslessly in the
// deterministic binary layout of internal/wire; the graph is not
// included. The inverse is DecodePlan over the same graph.
func EncodePlan(p *Plan) ([]byte, error) {
	ops := p.G.AllOps()
	vars := p.G.VarTable()
	varIndex := make(map[*ir.Var]int, len(vars))
	for i, v := range vars {
		varIndex[v] = i
	}

	e := wire.NewEncoder(64 + 2*len(ops))
	opRef := func(op *htg.Op) error {
		if op.ID < 0 || op.ID >= len(ops) || ops[op.ID] != op {
			return fmt.Errorf("sched: encode: op %d not in graph", op.ID)
		}
		e.Int(op.ID)
		return nil
	}
	varRef := func(v *ir.Var) error {
		i := -1
		if v != nil {
			var ok bool
			if i, ok = varIndex[v]; !ok {
				return fmt.Errorf("sched: encode: reference to foreign variable %q", v.Name)
			}
		}
		e.Int(i)
		return nil
	}

	e.Tag(planTag)
	e.Int(int(p.Mode))
	e.Int(p.NumStates)
	e.Uvarint(uint64(len(p.OpOrder)))
	for _, list := range p.OpOrder {
		e.Uvarint(uint64(len(list)))
		for _, op := range list {
			if err := opRef(op); err != nil {
				return nil, err
			}
		}
	}
	e.Uvarint(uint64(len(p.Transitions)))
	for _, tr := range p.Transitions {
		e.Int(tr.From)
		if err := varRef(tr.Cond); err != nil {
			return nil, err
		}
		e.Bool(tr.CondValue)
		e.Int(tr.To)
	}
	// VarClass in VarTable order; a key outside the table is foreign.
	e.Uvarint(uint64(len(p.VarClass)))
	written := 0
	for i, v := range vars {
		if cls, ok := p.VarClass[v]; ok {
			e.Int(i)
			e.Int(int(cls))
			written++
		}
	}
	if written != len(p.VarClass) {
		return nil, fmt.Errorf("sched: encode: %d var-class entries reference foreign variables",
			len(p.VarClass)-written)
	}
	var reentrant []int
	for s, on := range p.ReentrantStates {
		if on {
			reentrant = append(reentrant, s)
		}
	}
	slices.Sort(reentrant)
	e.Ints(reentrant)
	return e.Data(), nil
}

// DecodePlan reconstructs a plan serialized by EncodePlan and attaches
// it to g, which must be the graph the plan was made for: the lowering
// of the same program. Every op and variable reference is range-checked
// against g, and the FSM must fit the plan's states: one op list per
// state, every edge from a state to a state or done.
func DecodePlan(data []byte, g *htg.Graph) (*Plan, error) {
	planDecodes.Add(1)
	p, err := decodePlan(wire.NewDecoder(data), g)
	if err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	return p, nil
}

func decodePlan(d *wire.Decoder, g *htg.Graph) (*Plan, error) {
	d.Tag(planTag)
	p := &Plan{G: g, Mode: Mode(d.Int()), NumStates: d.Int()}
	ops := g.AllOps()
	vars := g.VarTable()
	// fail reports a semantic error, unless a wire failure (whose zero
	// values caused it) came first.
	fail := func(format string, args ...any) error {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf(format, args...)
	}
	opAt := func() (*htg.Op, error) {
		i := d.Int()
		if i < 0 || i >= len(ops) {
			return nil, fail("op reference %d out of range", i)
		}
		return ops[i], nil
	}
	varAt := func() (*ir.Var, error) {
		i := d.Int()
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(vars) {
			return nil, fail("variable reference %d out of range", i)
		}
		return vars[i], nil
	}
	var err error
	if n := d.Len(1); n > 0 {
		p.OpOrder = make([][]*htg.Op, n)
		for s := range p.OpOrder {
			if m := d.Len(1); m > 0 {
				p.OpOrder[s] = make([]*htg.Op, m)
				for i := range p.OpOrder[s] {
					if p.OpOrder[s][i], err = opAt(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if p.NumStates != len(p.OpOrder) {
		return nil, fail("%d states, but op lists for %d", p.NumStates, len(p.OpOrder))
	}
	if n := d.Len(4); n > 0 { // a transition is >= 4 bytes
		p.Transitions = make([]Transition, n)
		for i := range p.Transitions {
			tr := &p.Transitions[i]
			tr.From = d.Int()
			if tr.Cond, err = varAt(); err != nil {
				return nil, err
			}
			tr.CondValue, tr.To = d.Bool(), d.Int()
			if tr.From < 0 || tr.From >= p.NumStates || tr.To < -1 || tr.To >= p.NumStates {
				return nil, fail("transition %d -> %d outside %d states", tr.From, tr.To, p.NumStates)
			}
		}
	}
	n := d.Len(2) // a var-class entry is >= 2 bytes
	p.VarClass = make(map[*ir.Var]VarClass, n)
	for range n {
		v, err := varAt()
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, fail("var-class entry without variable")
		}
		p.VarClass[v] = VarClass(d.Int())
	}
	p.ReentrantStates = map[int]bool{}
	for range d.Len(1) {
		p.ReentrantStates[d.Int()] = true
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}
