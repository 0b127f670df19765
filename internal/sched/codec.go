package sched

// This file is the lossless serialization of schedules — the payload of
// the midend artifact cache. A Result is layered over a graph: ops are
// referenced by their position in the graph's construction order
// (htg.Graph.AllOps), variables by the graph's VarTable, and the graph
// itself travels embedded in its own lossless encoding, so a decoded
// schedule is a self-contained design ready for the backend.
//
// Each direction is one walk over internal/wire. Every map in Result
// (OpState, Arrival, Finish, VarClass, ReentrantStates, the dependence
// adjacency) is written as an index-ordered list: map iteration order
// is random, and the codec's contract is that encode(decode(x)) is
// byte-identical to x.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"sparkgo/internal/delay"
	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/wire"
)

// resultTag versions the schedule wire layout.
const resultTag = "sched/1"

// resultDecodes counts DecodeResult calls — the zero-decode revival
// tests assert disk-warm sweeps never pay a midend decode.
var resultDecodes atomic.Int64

// ResultDecodeCount reports how many schedules have been decoded since
// process start.
func ResultDecodeCount() int64 { return resultDecodes.Load() }

// EncodeResult serializes a schedule losslessly into a self-contained
// byte string (graph and program included) in the deterministic binary
// layout of internal/wire. The inverse is DecodeResult.
func EncodeResult(r *Result) ([]byte, error) {
	graph, err := htg.EncodeGraph(r.G)
	if err != nil {
		return nil, fmt.Errorf("sched: encode: %w", err)
	}
	ops := r.G.AllOps()
	opIndex := make(map[*htg.Op]int, len(ops))
	for i, op := range ops {
		opIndex[op] = i
	}
	vars := r.G.VarTable()
	varIndex := make(map[*ir.Var]int, len(vars))
	for i, v := range vars {
		varIndex[v] = i
	}

	e := wire.NewEncoder(512 + len(graph))
	opRef := func(op *htg.Op) error {
		i, ok := opIndex[op]
		if !ok {
			return fmt.Errorf("sched: encode: op %d not in graph", op.ID)
		}
		e.Int(i)
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

	e.Tag(resultTag)
	e.Bytes(graph)
	e.Int(int(r.Mode))
	e.Bool(r.Model != nil)
	if r.Model != nil {
		e.Float64(r.Model.NandDelay)
		e.Float64(r.Model.ClockPeriod)
	}
	e.Int(r.NumStates)
	// OpState, Arrival and Finish are indexed by op position.
	e.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		e.Int(r.OpState[op])
	}
	e.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		e.Float64(r.Arrival[op])
	}
	e.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		e.Float64(r.Finish[op])
	}
	e.Uvarint(uint64(len(r.OpOrder)))
	for _, list := range r.OpOrder {
		e.Uvarint(uint64(len(list)))
		for _, op := range list {
			if err := opRef(op); err != nil {
				return nil, err
			}
		}
	}
	e.Uvarint(uint64(len(r.Transitions)))
	for _, tr := range r.Transitions {
		e.Int(tr.From)
		if err := varRef(tr.Cond); err != nil {
			return nil, err
		}
		e.Bool(tr.CondValue)
		e.Int(tr.To)
	}
	// VarClass in VarTable order; a key outside the table is foreign.
	e.Uvarint(uint64(len(r.VarClass)))
	written := 0
	for i, v := range vars {
		if cls, ok := r.VarClass[v]; ok {
			e.Int(i)
			e.Int(int(cls))
			written++
		}
	}
	if written != len(r.VarClass) {
		return nil, fmt.Errorf("sched: encode: %d var-class entries reference foreign variables",
			len(r.VarClass)-written)
	}
	e.Float64s(r.StateCritPath)
	var reentrant []int
	for s, on := range r.ReentrantStates {
		if on {
			reentrant = append(reentrant, s)
		}
	}
	slices.Sort(reentrant)
	e.Ints(reentrant)
	e.Int(r.ClockViolations)
	e.Bool(r.Deps != nil)
	if r.Deps != nil {
		// The dependence graph's op list is almost always the identity
		// order over AllOps, but travels explicitly; the successor
		// adjacency follows in (op, insertion) order, and the decoder
		// rebuilds the predecessor lists by replaying it.
		e.Uvarint(uint64(len(r.Deps.Ops)))
		edges := 0
		for _, op := range r.Deps.Ops {
			if err := opRef(op); err != nil {
				return nil, err
			}
			edges += len(r.Deps.Succs[op])
		}
		e.Uvarint(uint64(edges))
		for _, op := range r.Deps.Ops {
			for _, ed := range r.Deps.Succs[op] {
				if err := opRef(ed.From); err != nil {
					return nil, err
				}
				if err := opRef(ed.To); err != nil {
					return nil, err
				}
				e.Int(int(ed.Kind))
				if err := varRef(ed.Var); err != nil {
					return nil, err
				}
			}
		}
	}
	return e.Data(), nil
}

// DecodeResult reconstructs a schedule serialized by EncodeResult,
// graph and program included. The result shares nothing with any other
// schedule; op and variable identity is rebuilt from the embedded
// graph's tables, and every reference is range-checked.
func DecodeResult(data []byte) (*Result, error) {
	resultDecodes.Add(1)
	r, err := decodeResult(wire.NewDecoder(data))
	if err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	return r, nil
}

func decodeResult(d *wire.Decoder) (*Result, error) {
	d.Tag(resultTag)
	graph := d.Bytes()
	r := &Result{Mode: Mode(d.Int())}
	if d.Bool() {
		r.Model = &delay.Model{NandDelay: d.Float64(), ClockPeriod: d.Float64()}
	}
	r.NumStates = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	g, err := htg.DecodeGraph(graph)
	if err != nil {
		return nil, err
	}
	r.G = g
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
	opTable := func(minBytes int) error {
		if n := d.Len(minBytes); n != len(ops) {
			return fail("op table size mismatch (%d ops, %d entries)", len(ops), n)
		}
		return nil
	}

	if err := opTable(1); err != nil {
		return nil, err
	}
	r.OpState = make(map[*htg.Op]int, len(ops))
	for _, op := range ops {
		r.OpState[op] = d.Int()
	}
	if err := opTable(8); err != nil {
		return nil, err
	}
	r.Arrival = make(map[*htg.Op]float64, len(ops))
	for _, op := range ops {
		r.Arrival[op] = d.Float64()
	}
	if err := opTable(8); err != nil {
		return nil, err
	}
	r.Finish = make(map[*htg.Op]float64, len(ops))
	for _, op := range ops {
		r.Finish[op] = d.Float64()
	}
	if n := d.Len(1); n > 0 {
		r.OpOrder = make([][]*htg.Op, n)
		for s := range r.OpOrder {
			if m := d.Len(1); m > 0 {
				r.OpOrder[s] = make([]*htg.Op, m)
				for i := range r.OpOrder[s] {
					if r.OpOrder[s][i], err = opAt(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if n := d.Len(4); n > 0 { // a transition is >= 4 bytes
		r.Transitions = make([]Transition, n)
		for i := range r.Transitions {
			tr := &r.Transitions[i]
			tr.From = d.Int()
			if tr.Cond, err = varAt(); err != nil {
				return nil, err
			}
			tr.CondValue, tr.To = d.Bool(), d.Int()
		}
	}
	n := d.Len(2) // a var-class entry is >= 2 bytes
	r.VarClass = make(map[*ir.Var]VarClass, n)
	for range n {
		v, err := varAt()
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, fail("var-class entry without variable")
		}
		r.VarClass[v] = VarClass(d.Int())
	}
	r.StateCritPath = d.Float64s()
	r.ReentrantStates = map[int]bool{}
	for range d.Len(1) {
		r.ReentrantStates[d.Int()] = true
	}
	r.ClockViolations = d.Int()
	if d.Bool() {
		deps := &dfa.Graph{Succs: map[*htg.Op][]dfa.Edge{}, Preds: map[*htg.Op][]dfa.Edge{}}
		if n := d.Len(1); n > 0 {
			deps.Ops = make([]*htg.Op, n)
			for i := range deps.Ops {
				if deps.Ops[i], err = opAt(); err != nil {
					return nil, err
				}
			}
		}
		for range d.Len(4) { // a dependence edge is >= 4 bytes
			var ed dfa.Edge
			if ed.From, err = opAt(); err != nil {
				return nil, err
			}
			if ed.To, err = opAt(); err != nil {
				return nil, err
			}
			ed.Kind = dfa.EdgeKind(d.Int())
			if ed.Var, err = varAt(); err != nil {
				return nil, err
			}
			deps.Succs[ed.From] = append(deps.Succs[ed.From], ed)
			deps.Preds[ed.To] = append(deps.Preds[ed.To], ed)
		}
		r.Deps = deps
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}
