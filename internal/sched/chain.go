package sched

import (
	"fmt"
	"sort"

	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// scheduleChain implements the flattened, chaining-across-conditionals
// regime (§3.1). It list-schedules the global dependence graph: an op may
// join cycle c when every dependence predecessor is scheduled at or before
// c and, for same-cycle predecessors, the accumulated combinational path —
// including the multiplexers that merge conditionally-written values along
// the chaining trails — still fits the clock period.
func scheduleChain(g *htg.Graph, cfg Config) (*Result, error) {
	if g.HasLoops() {
		return nil, fmt.Errorf("sched: chain mode requires a loop-free graph " +
			"(unroll loops first, or use sequential mode)")
	}
	ops := g.AllOps()
	deps := dfa.Build(ops, cfg.DepOpts)
	m := cfg.Model

	res := newResult(g, ModeChain)

	// Priority: delay-weighted longest path to any sink (computed over
	// the reversed program order — program order is topological).
	prio := map[*htg.Op]float64{}
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		best := 0.0
		for _, e := range deps.Succs[op] {
			if p := prio[e.To]; p > best {
				best = p
			}
		}
		prio[op] = best + opDelay(m, op)
	}

	// defsOf: all defs of a variable (for mux-merge delay estimation).
	defsOf := map[*ir.Var][]*htg.Op{}
	for _, op := range ops {
		if w := op.Writes(); w != nil {
			defsOf[w] = append(defsOf[w], op)
		}
	}

	unscheduled := map[*htg.Op]bool{}
	for _, op := range ops {
		unscheduled[op] = true
	}

	// arrivalAt computes the op's input arrival time if placed in cycle c
	// now: same-cycle predecessor finishes, plus a mux penalty when an
	// operand has several conditional writers in this cycle (the §3.1.2
	// wire-variable merge hardware), plus the guard-conjunction network
	// when the op itself commits conditionally (the select chains the
	// netlist really builds).
	andDelay := m.BinOpDelay(ir.OpLAnd, ir.Bool)
	arrivalAt := func(op *htg.Op, c int) float64 {
		arr := 0.0
		seen := map[*ir.Var]bool{}
		for _, e := range deps.Preds[op] {
			if e.Kind == dfa.Anti || e.Kind == dfa.Output {
				continue // ordering only: no value flows
			}
			if res.OpState[e.From] != c || unscheduled[e.From] {
				continue
			}
			f := res.Finish[e.From]
			v := e.Var
			if v != nil && !seen[v] {
				seen[v] = true
				guarded := 0
				for _, d := range defsOf[v] {
					if !unscheduled[d] && res.OpState[d] == c && len(d.BB.Guard) > 0 {
						guarded++
					}
				}
				if guarded > 0 {
					f += m.MuxDelay(guarded + 1)
				}
			}
			if e.Kind == dfa.Guard {
				// Condition values pass through the guard AND
				// chain before selecting.
				f += andDelay * float64(len(op.BB.Guard))
			}
			if f > arr {
				arr = f
			}
		}
		return arr
	}
	// commitCost is the extra combinational delay of a conditional
	// commit: the 2:1 select the netlist inserts for a guarded write.
	commitCost := func(op *htg.Op) float64 {
		if len(op.BB.Guard) == 0 {
			return 0
		}
		return m.MuxDelay(2)
	}

	// Resource usage, exclusivity-aware: the maximum number of
	// same-class ops active in cycle c over any control scenario,
	// computed by recursion over the HTG tree (max across exclusive
	// branches, sum across sequential regions).
	usage := func(class Class, c int, extra *htg.Op) int {
		var walk func(n htg.Node) int
		countBB := func(bb *htg.BasicBlock) int {
			k := 0
			for _, op := range bb.Ops {
				if (op == extra || (!unscheduled[op] && res.OpState[op] == c)) &&
					ClassOf(op) == class {
					k++
				}
			}
			return k
		}
		walk = func(n htg.Node) int {
			switch x := n.(type) {
			case *htg.BBNode:
				return countBB(x.BB)
			case *htg.Seq:
				t := 0
				for _, ch := range x.Nodes {
					t += walk(ch)
				}
				return t
			case *htg.IfNode:
				t := walk(x.Then)
				e := 0
				if x.Else != nil {
					e = walk(x.Else)
				}
				if e > t {
					return e
				}
				return t
			}
			return 0
		}
		return walk(g.Root)
	}

	remaining := len(ops)
	for cycle := 0; remaining > 0; cycle++ {
		if cycle > 100000 {
			return nil, fmt.Errorf("sched: runaway scheduling (%d ops left)", remaining)
		}
		res.StateCritPath = append(res.StateCritPath, 0)
		// Candidates whose predecessors are all scheduled (<= cycle).
		// Anti and output edges are held to the same rule as flow
		// edges, so an ordering predecessor may share the cycle:
		// netlist construction orders the value network correctly.
		progress := true
		for progress {
			progress = false
			var ready []*htg.Op
			for op := range unscheduled {
				ok := true
				for _, e := range deps.Preds[op] {
					if unscheduled[e.From] {
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
				arr := arrivalAt(op, cycle)
				fin := arr + opDelay(m, op) + commitCost(op)
				if cfg.DisableChaining && arr > 0 {
					continue // must wait for the next cycle
				}
				if m.ClockPeriod > 0 && fin+m.RegisterSetup() > m.ClockPeriod {
					if arr == 0 {
						// Cannot fit even at cycle start: schedule
						// anyway and record the violation.
						res.ClockViolations++
					} else {
						continue // retry next cycle
					}
				}
				if !cfg.Resources.Unlimited {
					cl := ClassOf(op)
					if cl != ClassFree && usage(cl, cycle, op) > cfg.Resources.available(cl) {
						continue
					}
				}
				res.OpState[op] = cycle
				res.Arrival[op] = arr
				res.Finish[op] = fin
				delete(unscheduled, op)
				remaining--
				progress = true
				if fin > res.StateCritPath[cycle] {
					res.StateCritPath[cycle] = fin
				}
			}
		}
		if remaining > 0 && len(res.StateCritPath) > len(ops)+1 {
			return nil, fmt.Errorf("sched: no progress at cycle %d", cycle)
		}
	}
	res.NumStates = len(res.StateCritPath)
	for i := range res.StateCritPath {
		res.StateCritPath[i] += m.RegisterSetup()
	}

	// Per-state op order: program order (topological).
	res.OpOrder = make([][]*htg.Op, res.NumStates)
	for _, op := range ops {
		s := res.OpState[op]
		res.OpOrder[s] = append(res.OpOrder[s], op)
	}
	for _, list := range res.OpOrder {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	}

	// Linear FSM: S0 → S1 → ... → done.
	for s := 0; s < res.NumStates-1; s++ {
		res.Transitions = append(res.Transitions, Transition{From: s, To: s + 1})
	}
	if res.NumStates > 0 {
		res.Transitions = append(res.Transitions, Transition{From: res.NumStates - 1, To: -1})
	}

	classifyVars(res.Plan)
	return res, nil
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
