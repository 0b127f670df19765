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
	// varInfo is one variable's record. Defs are gathered first, so the
	// second pass can tell at each read whether the value escapes its
	// def state: read in another state, or before its first def there.
	type varInfo struct {
		defState   int // the first state that writes it; -1 if none
		manyStates bool
		firstDef   int // op-order index of the first def in defState
		guarded    bool
		escapes    bool
	}
	index := map[*ir.Var]int{}
	var infos []varInfo
	get := func(v *ir.Var) *varInfo {
		i, ok := index[v]
		if !ok {
			i = len(infos)
			index[v] = i
			infos = append(infos, varInfo{defState: -1})
		}
		return &infos[i]
	}
	for s, list := range res.OpOrder {
		for idx, op := range list {
			if w := op.Writes(); w != nil {
				vi := get(w)
				if vi.defState < 0 {
					vi.defState, vi.firstDef = s, idx
				} else if s != vi.defState {
					vi.manyStates = true
				}
				if len(op.BB.Guard) > 0 {
					vi.guarded = true
				}
			}
		}
	}
	read := func(v *ir.Var, s, idx int) {
		if vi := get(v); s != vi.defState || idx < vi.firstDef {
			vi.escapes = true
		}
	}
	for s, list := range res.OpOrder {
		for idx, op := range list {
			for _, v := range op.Reads() {
				read(v, s, idx)
			}
			// Guard conditions are reads too.
			for _, gt := range op.BB.Guard {
				read(gt.Cond, s, idx)
			}
		}
	}
	// A transition condition is read at the end of its From state.
	for _, tr := range res.Transitions {
		if tr.Cond != nil {
			read(tr.Cond, tr.From, len(res.OpOrder[tr.From]))
		}
	}
	for v, i := range index {
		vi := infos[i]
		cls := Wire
		switch {
		case v.IsGlobal || (res.G.RetVar != nil && v == res.G.RetVar):
			cls = Register
		case vi.defState < 0:
			// Never written: reads see the initial value; a local
			// reads as constant zero — keep as wire (netlist feeds
			// zero), unless global (handled above).
			cls = Wire
		case vi.manyStates || vi.escapes:
			cls = Register
		case res.ReentrantStates[vi.defState] && vi.guarded:
			cls = Register
		}
		res.VarClass[v] = cls
	}
}
