package sched

import "sparkgo/internal/ir"

// chain implements the flattened, chaining-across-conditionals regime
// (§3.1): one list-scheduling run over the whole loop-free graph, so an
// op joins the first state where its predecessors are placed and, for
// same-state predecessors, the accumulated combinational path —
// including the muxes that merge conditionally written values along the
// chaining trails — still fits the clock period. The FSM is linear:
// S0 → S1 → ... → done.
func (s *scheduler) chain() error {
	ops := s.res.G.AllOps()
	if len(ops) == 0 {
		return nil // nothing to schedule: no states
	}
	_, last, err := s.list(s.res.G.Root, ops, false)
	if err != nil {
		return err
	}
	s.emit(last, nil, false, done)
	return nil
}

// classifyVars assigns Register/Wire per the rules worked out in DESIGN.md:
// a variable is a wire-variable iff it is local, written in exactly one
// state, never read in another state, never read (in op order) before its
// first write in that state, and — for re-entrant states — its first write
// is unguarded. Everything else is a register. Globals and the return
// variable are always registers (architectural state).
func classifyVars(res *Plan) {
	type varInfo struct {
		defStates map[int]bool
		useStates map[int]bool
		firstDef  map[int]int // state -> op order index of first def
		firstUse  map[int]int
		guarded   bool // some def is guarded
	}
	info := map[*ir.Var]*varInfo{}
	get := func(v *ir.Var) *varInfo {
		vi := info[v]
		if vi == nil {
			vi = &varInfo{defStates: map[int]bool{}, useStates: map[int]bool{},
				firstDef: map[int]int{}, firstUse: map[int]int{}}
			info[v] = vi
		}
		return vi
	}
	for s, list := range res.OpOrder {
		for idx, op := range list {
			for _, v := range op.Reads() {
				vi := get(v)
				vi.useStates[s] = true
				if _, ok := vi.firstUse[s]; !ok {
					vi.firstUse[s] = idx
				}
			}
			// Guard conditions are reads too.
			for _, gt := range op.BB.Guard {
				vi := get(gt.Cond)
				vi.useStates[s] = true
				if _, ok := vi.firstUse[s]; !ok {
					vi.firstUse[s] = idx
				}
			}
			if w := op.Writes(); w != nil {
				vi := get(w)
				vi.defStates[s] = true
				if _, ok := vi.firstDef[s]; !ok {
					vi.firstDef[s] = idx
				}
				if len(op.BB.Guard) > 0 {
					vi.guarded = true
				}
			}
		}
	}
	// Transition conditions are cross-checked as uses at their From
	// state.
	for _, tr := range res.Transitions {
		if tr.Cond != nil {
			vi := get(tr.Cond)
			vi.useStates[tr.From] = true
		}
	}
	for v, vi := range info {
		cls := Wire
		switch {
		case v.IsGlobal || (res.G.RetVar != nil && v == res.G.RetVar):
			cls = Register
		case len(vi.defStates) == 0:
			// Never written: reads see the initial value; a local
			// reads as constant zero — keep as wire (netlist feeds
			// zero), unless global (handled above).
			cls = Wire
		case len(vi.defStates) > 1:
			cls = Register
		default:
			var ds int
			for s := range vi.defStates {
				ds = s
			}
			for us := range vi.useStates {
				if us != ds {
					cls = Register
				}
			}
			if fu, ok := vi.firstUse[ds]; ok && fu < vi.firstDef[ds] {
				cls = Register
			}
			if res.ReentrantStates[ds] && vi.guarded {
				cls = Register
			}
		}
		res.VarClass[v] = cls
	}
}
