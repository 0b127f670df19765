package sched

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sparkgo/internal/delay"
	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// This file is the lossless serialization of schedules — the payload of
// the midend artifact cache. A Result is layered over a graph: ops are
// referenced by their position in the graph's construction order
// (htg.Graph.AllOps), variables by the graph's VarTable, and the graph
// itself travels embedded in its own lossless encoding, so a decoded
// schedule is a self-contained design ready for the backend. Every map
// in Result (OpState, Arrival, Finish, VarClass, ReentrantStates, the
// dependence adjacency) is flattened to an index-ordered slice on the
// wire: map iteration order is random, and the codec's contract is
// that encode(decode(x)) is byte-identical to x. The binary wire
// framing lives in wirecodec.go.

// resultDecodes counts DecodeResult calls — the zero-decode revival
// tests assert disk-warm sweeps never pay a midend decode.
var resultDecodes atomic.Int64

// ResultDecodeCount reports how many schedules have been decoded since
// process start.
func ResultDecodeCount() int64 { return resultDecodes.Load() }

type schedTransCode struct {
	From      int
	Cond      int // VarTable reference, -1 when unconditional
	CondValue bool
	To        int
}

type varClassCode struct {
	Var   int
	Class int
}

type depEdgeCode struct {
	From int // op index
	To   int
	Kind int
	Var  int // VarTable reference, -1 when none
}

type resultCode struct {
	Graph []byte // htg.EncodeGraph of G
	Mode  int

	HasModel    bool
	NandDelay   float64
	ClockPeriod float64

	NumStates int
	// OpState/Arrival/Finish are indexed by op position (AllOps order).
	OpState []int
	Arrival []float64
	Finish  []float64
	// OpOrder holds op indices per state.
	OpOrder     [][]int
	Transitions []schedTransCode
	// VarClass is sorted by VarTable index.
	VarClass      []varClassCode
	StateCritPath []float64
	// ReentrantStates lists the marked states in ascending order.
	ReentrantStates []int
	ClockViolations int

	HasDeps bool
	// DepOps is the dependence graph's op list (almost always the
	// identity order over AllOps, but encoded explicitly); DepEdges is
	// the successor adjacency flattened in (op, insertion) order —
	// predecessor lists are rebuilt by replaying the edges.
	DepOps   []int
	DepEdges []depEdgeCode
}

// EncodeResult serializes a schedule losslessly into a self-contained
// byte string (graph and program included), framed by the deterministic
// binary codec of internal/wire. The inverse is DecodeResult.
func EncodeResult(r *Result) ([]byte, error) {
	rc, err := flattenResult(r)
	if err != nil {
		return nil, err
	}
	return encodeResultWire(rc), nil
}

// flattenResult lowers the schedule's maps and pointers onto the
// index-ordered intermediate form, the embedded graph in its own
// lossless encoding.
func flattenResult(r *Result) (*resultCode, error) {
	graph, err := htg.EncodeGraph(r.G)
	if err != nil {
		return nil, fmt.Errorf("sched: encode: %w", err)
	}
	rc := resultCode{
		Graph: graph, Mode: int(r.Mode), NumStates: r.NumStates,
		StateCritPath:   append([]float64(nil), r.StateCritPath...),
		ClockViolations: r.ClockViolations,
	}
	if r.Model != nil {
		rc.HasModel = true
		rc.NandDelay = r.Model.NandDelay
		rc.ClockPeriod = r.Model.ClockPeriod
	}

	ops := r.G.AllOps()
	opIndex := make(map[*htg.Op]int, len(ops))
	for i, op := range ops {
		opIndex[op] = i
	}
	opRef := func(op *htg.Op) (int, error) {
		i, ok := opIndex[op]
		if !ok {
			return 0, fmt.Errorf("sched: encode: op %d not in graph", op.ID)
		}
		return i, nil
	}
	varIndex := map[*ir.Var]int{}
	for i, v := range r.G.VarTable() {
		varIndex[v] = i
	}
	varRef := func(v *ir.Var) (int, error) {
		if v == nil {
			return -1, nil
		}
		i, ok := varIndex[v]
		if !ok {
			return 0, fmt.Errorf("sched: encode: reference to foreign variable %q", v.Name)
		}
		return i, nil
	}

	rc.OpState = make([]int, len(ops))
	rc.Arrival = make([]float64, len(ops))
	rc.Finish = make([]float64, len(ops))
	for i, op := range ops {
		rc.OpState[i] = r.OpState[op]
		rc.Arrival[i] = r.Arrival[op]
		rc.Finish[i] = r.Finish[op]
	}
	for _, list := range r.OpOrder {
		idx := make([]int, 0, len(list))
		for _, op := range list {
			i, err := opRef(op)
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
		}
		rc.OpOrder = append(rc.OpOrder, idx)
	}
	for _, tr := range r.Transitions {
		ci, err := varRef(tr.Cond)
		if err != nil {
			return nil, err
		}
		rc.Transitions = append(rc.Transitions, schedTransCode{
			From: tr.From, Cond: ci, CondValue: tr.CondValue, To: tr.To})
	}
	for v, cls := range r.VarClass {
		i, err := varRef(v)
		if err != nil {
			return nil, err
		}
		rc.VarClass = append(rc.VarClass, varClassCode{Var: i, Class: int(cls)})
	}
	sort.Slice(rc.VarClass, func(i, j int) bool { return rc.VarClass[i].Var < rc.VarClass[j].Var })
	for s, on := range r.ReentrantStates {
		if on {
			rc.ReentrantStates = append(rc.ReentrantStates, s)
		}
	}
	sort.Ints(rc.ReentrantStates)

	if r.Deps != nil {
		rc.HasDeps = true
		for _, op := range r.Deps.Ops {
			i, err := opRef(op)
			if err != nil {
				return nil, err
			}
			rc.DepOps = append(rc.DepOps, i)
		}
		for _, op := range r.Deps.Ops {
			for _, e := range r.Deps.Succs[op] {
				fi, err := opRef(e.From)
				if err != nil {
					return nil, err
				}
				ti, err := opRef(e.To)
				if err != nil {
					return nil, err
				}
				vi, err := varRef(e.Var)
				if err != nil {
					return nil, err
				}
				rc.DepEdges = append(rc.DepEdges, depEdgeCode{
					From: fi, To: ti, Kind: int(e.Kind), Var: vi})
			}
		}
	}

	return &rc, nil
}

// DecodeResult reconstructs a schedule serialized by EncodeResult,
// graph and program included. The result shares nothing with any other
// schedule; op and variable identity is rebuilt from the embedded
// graph's tables.
func DecodeResult(data []byte) (*Result, error) {
	resultDecodes.Add(1)
	rc, err := decodeResultWire(data)
	if err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	return rebuildResult(rc)
}

// rebuildResult resolves the flattened form back into a schedule over a
// freshly decoded graph.
func rebuildResult(rc *resultCode) (*Result, error) {
	g, err := htg.DecodeGraph(rc.Graph)
	if err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	ops := g.AllOps()
	opAt := func(i int) (*htg.Op, error) {
		if i < 0 || i >= len(ops) {
			return nil, fmt.Errorf("sched: decode: op reference %d out of range", i)
		}
		return ops[i], nil
	}
	vars := g.VarTable()
	varAt := func(i int) (*ir.Var, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(vars) {
			return nil, fmt.Errorf("sched: decode: variable reference %d out of range", i)
		}
		return vars[i], nil
	}
	if len(rc.OpState) != len(ops) || len(rc.Arrival) != len(ops) || len(rc.Finish) != len(ops) {
		return nil, fmt.Errorf("sched: decode: op table size mismatch (%d ops, %d states)",
			len(ops), len(rc.OpState))
	}

	r := &Result{
		G: g, Mode: Mode(rc.Mode), NumStates: rc.NumStates,
		OpState:         make(map[*htg.Op]int, len(ops)),
		Arrival:         make(map[*htg.Op]float64, len(ops)),
		Finish:          make(map[*htg.Op]float64, len(ops)),
		VarClass:        map[*ir.Var]VarClass{},
		ReentrantStates: map[int]bool{},
		StateCritPath:   append([]float64(nil), rc.StateCritPath...),
		ClockViolations: rc.ClockViolations,
	}
	if rc.HasModel {
		r.Model = &delay.Model{NandDelay: rc.NandDelay, ClockPeriod: rc.ClockPeriod}
	}
	for i, op := range ops {
		r.OpState[op] = rc.OpState[i]
		r.Arrival[op] = rc.Arrival[i]
		r.Finish[op] = rc.Finish[i]
	}
	for _, list := range rc.OpOrder {
		var state []*htg.Op
		for _, i := range list {
			op, err := opAt(i)
			if err != nil {
				return nil, err
			}
			state = append(state, op)
		}
		r.OpOrder = append(r.OpOrder, state)
	}
	for _, tc := range rc.Transitions {
		cv, err := varAt(tc.Cond)
		if err != nil {
			return nil, err
		}
		r.Transitions = append(r.Transitions, Transition{
			From: tc.From, Cond: cv, CondValue: tc.CondValue, To: tc.To})
	}
	for _, vc := range rc.VarClass {
		v, err := varAt(vc.Var)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, fmt.Errorf("sched: decode: var-class entry without variable")
		}
		r.VarClass[v] = VarClass(vc.Class)
	}
	for _, s := range rc.ReentrantStates {
		r.ReentrantStates[s] = true
	}

	if rc.HasDeps {
		deps := &dfa.Graph{Succs: map[*htg.Op][]dfa.Edge{}, Preds: map[*htg.Op][]dfa.Edge{}}
		for _, i := range rc.DepOps {
			op, err := opAt(i)
			if err != nil {
				return nil, err
			}
			deps.Ops = append(deps.Ops, op)
		}
		for _, ec := range rc.DepEdges {
			from, err := opAt(ec.From)
			if err != nil {
				return nil, err
			}
			to, err := opAt(ec.To)
			if err != nil {
				return nil, err
			}
			v, err := varAt(ec.Var)
			if err != nil {
				return nil, err
			}
			e := dfa.Edge{From: from, To: to, Kind: dfa.EdgeKind(ec.Kind), Var: v}
			deps.Succs[from] = append(deps.Succs[from], e)
			deps.Preds[to] = append(deps.Preds[to], e)
		}
		r.Deps = deps
	}
	return r, nil
}
