package sched

import (
	"fmt"
	"slices"

	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// scheduler is the state both regimes share: the schedule being built,
// the dependence graph over the whole design, the per-state counts the
// chaining and resource checks read, and list's per-op tables.
type scheduler struct {
	cfg  Config
	res  *Result
	deps *dfa.Graph
	// guarded counts the placed guarded writes of each variable per
	// state: a same-state reader sees them merged by a mux of that many
	// inputs plus one (§3.1.2).
	guarded map[varState]int
	// used counts the ops of each block and class placed in the
	// current (last opened) state. Only fits reads it, so it is kept
	// only under a resource limit.
	used map[blockClass]int

	// list's tables, indexed by op ID and reused by every run: an op is
	// in the current run iff inRun[op.ID] == run, and prio and waiting
	// hold meaningful values only for such ops.
	run     int
	inRun   []int
	prio    []float64
	waiting []int
}

// newScheduler prepares to schedule g: its dependence graph, an empty
// result and list's tables, each sized by op ID.
func newScheduler(g *htg.Graph, cfg Config) *scheduler {
	deps := dfa.Build(g.AllOps())
	ids := len(deps.Preds)
	res := &Result{
		Plan: &Plan{G: g, Mode: cfg.Mode,
			VarClass: map[*ir.Var]VarClass{}, ReentrantStates: map[int]bool{}},
		OpState: slices.Repeat([]int{-1}, ids),
		Arrival: make([]float64, ids), Finish: make([]float64, ids),
	}
	return &scheduler{cfg: cfg, res: res, deps: deps,
		guarded: map[varState]int{}, used: map[blockClass]int{},
		inRun: make([]int, ids), prio: make([]float64, ids), waiting: make([]int, ids)}
}

type varState struct {
	v  *ir.Var
	st int
}

type blockClass struct {
	bb *htg.BasicBlock
	cl Class
}

// pendingExit identifies an FSM edge whose target may still be patched
// (an index into Transitions).
type pendingExit int

// done is the FSM target that ends the activation.
const done = -1

// open appends a fresh, empty state and returns its index.
func (s *scheduler) open(reentrant bool) int {
	st := len(s.res.OpOrder)
	s.res.OpOrder = append(s.res.OpOrder, nil)
	s.res.StateCritPath = append(s.res.StateCritPath, 0)
	if reentrant {
		s.res.ReentrantStates[st] = true
	}
	clear(s.used)
	return st
}

// emit appends an FSM edge and returns its handle for later patching.
func (s *scheduler) emit(from int, cond *ir.Var, val bool, to int) pendingExit {
	s.res.Transitions = append(s.res.Transitions,
		Transition{From: from, Cond: cond, CondValue: val, To: to})
	return pendingExit(len(s.res.Transitions) - 1)
}

func (s *scheduler) patch(e pendingExit, to int) { s.res.Transitions[e].To = to }

// list list-schedules ops, the ops of region in program order, into
// fresh consecutive states linked by unconditional edges, and returns
// the first and the last of them. An op is ready once its predecessors
// among ops are placed. Each pass over a state tries the ready ops in
// (priority desc, ID asc) order; ops a placement makes ready wait for
// the next pass, and a pass that places nothing closes the state.
func (s *scheduler) list(region htg.Node, ops []*htg.Op, reentrant bool) (first, last int, err error) {
	s.run++
	inRun, prio, waiting := s.inRun, s.prio, s.waiting
	for _, op := range ops {
		inRun[op.ID], waiting[op.ID] = s.run, 0
	}
	// One reverse pass over the edges among ops fills both tables. prio
	// is the delay-weighted longest path to a sink within ops: program
	// order is topological, so each successor's prio is final before
	// its predecessors read it, and successors outside ops count as 0.
	// waiting counts each op's unplaced predecessors among ops.
	for i := len(ops) - 1; i >= 0; i-- {
		best := 0.0
		for _, to := range s.deps.Succs[ops[i].ID] {
			if inRun[to] == s.run {
				best = max(best, prio[to])
				waiting[to]++
			}
		}
		prio[ops[i].ID] = best + opDelay(s.cfg.Model, ops[i])
	}
	var ready []*htg.Op
	for _, op := range ops {
		if waiting[op.ID] == 0 {
			ready = append(ready, op)
		}
	}

	first = s.open(reentrant)
	last = first
	for left := len(ops); left > 0; {
		slices.SortFunc(ready, func(a, b *htg.Op) int {
			if pa, pb := prio[a.ID], prio[b.ID]; pa != pb {
				if pa > pb {
					return -1
				}
				return 1
			}
			return a.ID - b.ID
		})
		var next []*htg.Op
		placed := false
		for _, op := range ready {
			if !s.place(region, op, last) {
				next = append(next, op) // retried in the next pass
				continue
			}
			placed = true
			left--
			for _, to := range s.deps.Succs[op.ID] {
				if inRun[to] == s.run {
					waiting[to]--
					if waiting[to] == 0 {
						next = append(next, s.deps.ByID[to])
					}
				}
			}
		}
		if !placed {
			// Nothing placed: the state is full. In a fresh state
			// only a class without units can refuse an op.
			if len(s.res.OpOrder[last]) == 0 {
				return 0, 0, fmt.Errorf("sched: no %s unit for op %s", ClassOf(ready[0]), ready[0])
			}
			st := s.open(reentrant)
			s.emit(last, nil, false, st)
			last = st
		}
		ready = next
	}
	// Each state's ops in program order, for netlist construction.
	for _, list := range s.res.OpOrder[first : last+1] {
		slices.SortFunc(list, func(a, b *htg.Op) int { return a.ID - b.ID })
	}
	return first, last, nil
}

// place places op in state st if it meets the chaining rule, the clock
// and the resource allocation, and reports whether it did. An op that
// misses the clock even at state start is placed anyway, as a clock
// violation.
func (s *scheduler) place(region htg.Node, op *htg.Op, st int) bool {
	m := s.cfg.Model
	arr, fin := s.timing(op, st)
	if s.cfg.DisableChaining && arr > 0 {
		return false // must wait for the next state
	}
	violates := m.ClockPeriod > 0 && fin+m.RegisterSetup() > m.ClockPeriod
	if violates && arr > 0 {
		return false // retry in the next state
	}
	if !s.fits(region, op) {
		return false
	}
	if violates {
		s.res.ClockViolations++
	}
	s.res.OpState[op.ID], s.res.Arrival[op.ID], s.res.Finish[op.ID] = st, arr, fin
	s.res.OpOrder[st] = append(s.res.OpOrder[st], op)
	if fin > s.res.StateCritPath[st] {
		s.res.StateCritPath[st] = fin
	}
	if w := op.Writes(); w != nil && len(op.BB.Guard) > 0 {
		s.guarded[varState{w, st}]++
	}
	if !s.cfg.Resources.Unlimited {
		s.used[blockClass{op.BB, ClassOf(op)}]++
	}
	return true
}

// timing returns op's input arrival and result finish times if placed
// in state st: the latest finish of a same-state flow or guard
// predecessor, plus op's own delay. Chain mode adds the hardware a
// commit across conditionals needs: the mux merging an operand's
// guarded writes in the state (§3.1.2), the guard AND chain ahead of a
// select, and the 2:1 select of op's own guarded write.
func (s *scheduler) timing(op *htg.Op, st int) (arr, fin float64) {
	m := s.cfg.Model
	chain := s.cfg.Mode == ModeChain
	var buf [8]*ir.Var
	seen := buf[:0]
	for _, e := range s.deps.Preds[op.ID] {
		if e.Kind == dfa.Anti || e.Kind == dfa.Output {
			continue // ordering only: no value flows
		}
		if s.res.OpState[e.From] != st {
			continue
		}
		f := s.res.Finish[e.From]
		if chain {
			if v := s.deps.Var(op, e); v != nil && !slices.Contains(seen, v) {
				seen = append(seen, v)
				if n := s.guarded[varState{v, st}]; n > 0 {
					f += m.MuxDelay(n + 1)
				}
			}
			if e.Kind == dfa.Guard {
				f += m.BinOpDelay(ir.OpLAnd, ir.Bool) * float64(len(op.BB.Guard))
			}
		}
		if f > arr {
			arr = f
		}
	}
	fin = arr + opDelay(m, op)
	if chain && len(op.BB.Guard) > 0 {
		fin += m.MuxDelay(2)
	}
	return arr, fin
}

// fits reports whether op's class has a unit left in the current state
// under every control scenario of region: usage is the maximum across
// exclusive branches and the sum across sequential regions (§2:
// mutually exclusive ops share a resource).
func (s *scheduler) fits(region htg.Node, op *htg.Op) bool {
	cl := ClassOf(op)
	if s.cfg.Resources.Unlimited || cl == ClassFree {
		return true
	}
	var usage func(n htg.Node) int
	usage = func(n htg.Node) int {
		switch x := n.(type) {
		case *htg.BBNode:
			k := s.used[blockClass{x.BB, cl}]
			if x.BB == op.BB {
				k++
			}
			return k
		case *htg.Seq:
			t := 0
			for _, ch := range x.Nodes {
				t += usage(ch)
			}
			return t
		case *htg.IfNode:
			t := usage(x.Then)
			if x.Else != nil {
				t = max(t, usage(x.Else))
			}
			return t
		}
		return 0
	}
	return usage(region) <= s.cfg.Resources.available(cl)
}
