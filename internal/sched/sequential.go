package sched

import (
	"fmt"

	"sparkgo/internal/htg"
)

// sequential implements the classical-HLS baseline (Fig 1a): one basic
// block at a time, list-scheduled under the resource allocation with
// chaining only inside the block; conditionals branch the FSM (the
// not-taken side is skipped at run time); loops close FSM cycles. No
// operation moves across a conditional boundary — exactly the regime the
// paper argues is inadequate for single-cycle microprocessor blocks.
func (s *scheduler) sequential() error {
	_, _, err := s.region(s.res.G.Root, false)
	return err // dangling exits already lead to done
}

// transparent is the entry region returns for a node without states.
const transparent = -2

// region schedules an HTG node into a chain of states. It returns the
// entry state and the exits to patch to whatever follows; exits left
// unpatched lead to done. A node without states returns transparent
// (the caller connects around it).
func (s *scheduler) region(n htg.Node, reentrant bool) (int, []pendingExit, error) {
	switch x := n.(type) {
	case *htg.Seq:
		entry := transparent
		var exits []pendingExit
		for _, child := range x.Nodes {
			ce, cx, err := s.region(child, reentrant)
			if err != nil {
				return 0, nil, err
			}
			if ce == transparent {
				continue // empty child
			}
			for _, e := range exits {
				s.patch(e, ce)
			}
			if entry == transparent {
				entry = ce
			}
			exits = cx
		}
		return entry, exits, nil
	case *htg.BBNode:
		first, last, err := s.block(x.BB, reentrant)
		if err != nil {
			return 0, nil, err
		}
		return first, []pendingExit{s.emit(last, nil, false, done)}, nil
	case *htg.IfNode:
		// The condition was computed by a preceding block; branch from
		// a dedicated (empty) decision state.
		dec := s.open(reentrant)
		tTrue := s.emit(dec, x.Cond, true, done)
		tFalse := s.emit(dec, x.Cond, false, done)
		var exits []pendingExit
		te, tx, err := s.region(x.Then, reentrant)
		if err != nil {
			return 0, nil, err
		}
		if te == transparent {
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
			if ee == transparent {
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
		entry, initExit := transparent, pendingExit(0)
		if x.InitBB != nil && len(x.InitBB.Ops) > 0 {
			first, last, err := s.block(x.InitBB, reentrant)
			if err != nil {
				return 0, nil, err
			}
			entry, initExit = first, s.emit(last, nil, false, done)
		}
		ce, cond, err := s.block(x.CondBB, true)
		if err != nil {
			return 0, nil, err
		}
		if entry == transparent {
			entry = ce
		} else {
			s.patch(initExit, ce)
		}
		// From the condition's last state: true → body, false → exit.
		tBody := s.emit(cond, x.Cond, true, done)
		tExit := s.emit(cond, x.Cond, false, done)
		be, bx, err := s.region(x.Body, true)
		if err != nil {
			return 0, nil, err
		}
		if be == transparent {
			s.patch(tBody, ce) // empty body: loop straight back
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

// block list-schedules one basic block into fresh consecutive states (one
// empty state if it has no ops) and returns the first and last.
func (s *scheduler) block(bb *htg.BasicBlock, reentrant bool) (first, last int, err error) {
	return s.list(&htg.BBNode{BB: bb}, bb.Ops, reentrant)
}
