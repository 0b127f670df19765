package sched

import (
	"fmt"
	"sort"

	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// scheduleSequential implements the classical-HLS baseline (Fig 1a): one
// basic block at a time, list-scheduled under the resource allocation with
// chaining only inside the block; conditionals branch the FSM (the
// not-taken side is skipped at run time); loops close FSM cycles. No
// operation moves across a conditional boundary — exactly the regime the
// paper argues is inadequate for single-cycle microprocessor blocks.
func scheduleSequential(g *htg.Graph, cfg Config) (*Result, error) {
	m := cfg.Model
	res := newResult(g, ModeSequential)
	// Build the full dependence graph once for priorities (intra-BB
	// slices are consistent with it).
	s := &seqScheduler{cfg: cfg, res: res, deps: dfa.Build(g.AllOps(), cfg.DepOpts)}

	_, exits, err := s.region(g.Root, false)
	if err != nil {
		return nil, err
	}
	// All dangling exits flow to "done" (-1).
	for _, e := range exits {
		s.patch(e, -1)
	}
	res.NumStates = len(res.OpOrder)
	// Finalize per-state critical paths.
	res.StateCritPath = make([]float64, res.NumStates)
	for st, list := range res.OpOrder {
		for _, op := range list {
			if res.Finish[op] > res.StateCritPath[st] {
				res.StateCritPath[st] = res.Finish[op]
			}
		}
		res.StateCritPath[st] += m.RegisterSetup()
	}
	classifyVars(res.Plan)
	return res, nil
}

type seqScheduler struct {
	cfg  Config
	res  *Result
	deps *dfa.Graph
}

// pendingExit identifies an unresolved FSM edge (index into Transitions).
type pendingExit int

func (s *seqScheduler) patch(e pendingExit, target int) {
	s.res.Transitions[int(e)].To = target
}

// newState opens a fresh, empty state and returns its index.
func (s *seqScheduler) newState(reentrant bool) int {
	idx := len(s.res.OpOrder)
	s.res.OpOrder = append(s.res.OpOrder, nil)
	if reentrant {
		s.res.ReentrantStates[idx] = true
	}
	return idx
}

// emitTransition appends an FSM edge with unknown target, returning its
// handle for later patching.
func (s *seqScheduler) emitTransition(from int, cond *ir.Var, val bool) pendingExit {
	s.res.Transitions = append(s.res.Transitions,
		Transition{From: from, Cond: cond, CondValue: val, To: -2})
	return pendingExit(len(s.res.Transitions) - 1)
}

// region schedules an HTG node into a chain of states. It returns the
// entry state index and the list of dangling exits to patch to whatever
// follows. A region with no ops returns entry == -2 meaning "transparent"
// (caller connects around it).
func (s *seqScheduler) region(n htg.Node, reentrant bool) (int, []pendingExit, error) {
	switch x := n.(type) {
	case *htg.Seq:
		entry := -2
		var exits []pendingExit
		for _, child := range x.Nodes {
			ce, cx, err := s.region(child, reentrant)
			if err != nil {
				return 0, nil, err
			}
			if ce == -2 {
				continue // empty child
			}
			for _, e := range exits {
				s.patch(e, ce)
			}
			if entry == -2 {
				entry = ce
			}
			exits = cx
		}
		return entry, exits, nil
	case *htg.BBNode:
		return s.scheduleBB(x.BB, reentrant)
	case *htg.IfNode:
		// The condition was computed by a preceding BB (ops already
		// scheduled); branch from the last state of that BB — but we
		// model it simply: the conditional transition leaves the
		// current region boundary. We need a state to branch from:
		// the caller guarantees the cond BB precedes this node, so we
		// attach conditional transitions from a dedicated (empty)
		// decision state for clarity and generality.
		dec := s.newState(reentrant)
		tTrue := s.emitTransition(dec, x.Cond, true)
		tFalse := s.emitTransition(dec, x.Cond, false)
		var exits []pendingExit
		te, tx, err := s.region(x.Then, reentrant)
		if err != nil {
			return 0, nil, err
		}
		if te == -2 {
			exits = append(exits, tTrue)
		} else {
			s.patch(tTrue, te)
			exits = append(exits, tx...)
		}
		if x.Else != nil {
			ee, ex, err := s.region(x.Else, reentrant)
			if err != nil {
				return 0, nil, err
			}
			if ee == -2 {
				exits = append(exits, tFalse)
			} else {
				s.patch(tFalse, ee)
				exits = append(exits, ex...)
			}
		} else {
			exits = append(exits, tFalse)
		}
		return dec, exits, nil
	case *htg.LoopNode:
		entry := -2
		var preExits []pendingExit
		if x.InitBB != nil && len(x.InitBB.Ops) > 0 {
			ie, ix, err := s.scheduleBB(x.InitBB, reentrant)
			if err != nil {
				return 0, nil, err
			}
			entry = ie
			preExits = ix
		}
		ce, cx, err := s.scheduleBB(x.CondBB, true)
		if err != nil {
			return 0, nil, err
		}
		for _, e := range preExits {
			s.patch(e, ce)
		}
		if entry == -2 {
			entry = ce
		}
		// From the cond state: true → body, false → exit.
		condState := len(s.res.OpOrder) - 1 // last state of cond BB
		for _, e := range cx {
			// The cond BB's fall-through exit becomes the branch
			// decision: retarget it as the "true" edge later; simpler
			// to patch it into the decision below.
			s.patch(e, condState) // placeholder, replaced next
		}
		// Remove the placeholder fall-through edges and replace with
		// conditional edges.
		s.dropTransitionsTo(condState, cx)
		tBody := s.emitTransition(condState, x.Cond, true)
		tExit := s.emitTransition(condState, x.Cond, false)
		be, bx, err := s.region(x.Body, true)
		if err != nil {
			return 0, nil, err
		}
		if be == -2 {
			// Empty body: true edge loops straight back to cond.
			s.patch(tBody, ce)
		} else {
			s.patch(tBody, be)
			for _, e := range bx {
				s.patch(e, ce) // back edge
			}
		}
		return entry, []pendingExit{tExit}, nil
	}
	return 0, nil, fmt.Errorf("sched: unknown node %T", n)
}

// dropTransitionsTo neutralizes placeholder fall-through edges created by
// scheduleBB for a block whose exit is replaced by conditional edges.
func (s *seqScheduler) dropTransitionsTo(state int, exits []pendingExit) {
	for _, e := range exits {
		s.res.Transitions[int(e)].To = -3 // tombstone; filtered by rtl
		s.res.Transitions[int(e)].From = -3
	}
}

// scheduleBB list-schedules one basic block's ops into one or more fresh
// consecutive states, returning the entry state and one dangling
// fall-through exit.
func (s *seqScheduler) scheduleBB(bb *htg.BasicBlock, reentrant bool) (int, []pendingExit, error) {
	m := s.cfg.Model
	if len(bb.Ops) == 0 {
		st := s.newState(reentrant)
		e := s.emitTransition(st, nil, false)
		return st, []pendingExit{e}, nil
	}
	// Intra-BB dependences: restrict the global graph.
	inBB := map[*htg.Op]bool{}
	for _, op := range bb.Ops {
		inBB[op] = true
	}
	prio := map[*htg.Op]float64{}
	for i := len(bb.Ops) - 1; i >= 0; i-- {
		op := bb.Ops[i]
		best := 0.0
		for _, e := range s.deps.Succs[op] {
			if inBB[e.To] {
				if p := prio[e.To]; p > best {
					best = p
				}
			}
		}
		prio[op] = best + opDelay(m, op)
	}
	unscheduled := map[*htg.Op]bool{}
	for _, op := range bb.Ops {
		unscheduled[op] = true
	}
	entry := -1
	cur := -1
	remaining := len(bb.Ops)
	for remaining > 0 {
		cur = s.newState(reentrant)
		if entry == -1 {
			entry = cur
		}
		progress := true
		for progress {
			progress = false
			var ready []*htg.Op
			for op := range unscheduled {
				ok := true
				for _, e := range s.deps.Preds[op] {
					if inBB[e.From] && unscheduled[e.From] {
						ok = false
						break
					}
				}
				if ok {
					ready = append(ready, op)
				}
			}
			sort.Slice(ready, func(i, j int) bool {
				if prio[ready[i]] != prio[ready[j]] {
					return prio[ready[i]] > prio[ready[j]]
				}
				return ready[i].ID < ready[j].ID
			})
			for _, op := range ready {
				arr := 0.0
				for _, e := range s.deps.Preds[op] {
					if !inBB[e.From] || unscheduled[e.From] {
						continue
					}
					if e.Kind == dfa.Anti || e.Kind == dfa.Output {
						continue
					}
					if s.res.OpState[e.From] == cur && s.res.Finish[e.From] > arr {
						arr = s.res.Finish[e.From]
					}
				}
				fin := arr + opDelay(m, op)
				if s.cfg.DisableChaining && arr > 0 {
					continue
				}
				if m.ClockPeriod > 0 && fin+m.RegisterSetup() > m.ClockPeriod {
					if arr == 0 {
						s.res.ClockViolations++
					} else {
						continue
					}
				}
				if !s.cfg.Resources.Unlimited {
					cl := ClassOf(op)
					if cl != ClassFree {
						used := 0
						for _, q := range s.res.OpOrder[cur] {
							if ClassOf(q) == cl {
								used++
							}
						}
						if used+1 > s.cfg.Resources.available(cl) {
							continue
						}
					}
				}
				s.res.OpState[op] = cur
				s.res.Arrival[op] = arr
				s.res.Finish[op] = fin
				s.res.OpOrder[cur] = append(s.res.OpOrder[cur], op)
				delete(unscheduled, op)
				remaining--
				progress = true
			}
		}
		if remaining > 0 && len(s.res.OpOrder) > 100000 {
			return 0, nil, fmt.Errorf("sched: runaway sequential scheduling in BB%d", bb.ID)
		}
		if remaining > 0 {
			// Chain to the next state (created on the next pass).
			e := s.emitTransition(cur, nil, false)
			s.patch(e, len(s.res.OpOrder))
		}
	}
	// Keep each state's ops in program order for netlist construction.
	for st := entry; st <= cur; st++ {
		list := s.res.OpOrder[st]
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	}
	exit := s.emitTransition(cur, nil, false)
	return entry, []pendingExit{exit}, nil
}
