package rtl

import (
	"fmt"
	"sort"

	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/sched"
)

// sortedVars returns the map's variable keys in a stable order — the
// deterministic iteration every HDL-visible walk must use. Names are
// unique among locals and among globals, but a local may shadow a
// global's name, so globals order first on a name tie.
func sortedVars[T any](m map[*ir.Var]T) []*ir.Var {
	out := make([]*ir.Var, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].IsGlobal && !out[j].IsGlobal
	})
	return out
}

// Build constructs the RTL module realizing a schedule. The datapath is
// built with the value-tracking ("current value") method: walking each
// state's operations in order while tracking, per variable, the signal
// holding its current value; a conditionally-executed write becomes a
// multiplexer controlled by the block's guard network (the hardware of
// paper Figs 4, 6, 7); values that cross state boundaries become register
// writes. Wire-variables (§3.1.2) never touch a register.
func Build(res *sched.Plan) (*Module, error) {
	g := res.G
	m := NewModule(g.Prog.Name)
	m.NumStates = res.NumStates
	b := &builder{m: m, res: res}

	// Architectural storage: globals the design writes are registers;
	// read-only globals are combinational inputs.
	written := map[*ir.Var]bool{}
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil {
			written[w] = true
		}
	}
	for _, gv := range g.Prog.SortedGlobals() {
		if gv.Type.IsArray() {
			elems := make([]*Signal, gv.Type.Len)
			for i := range elems {
				name := fmt.Sprintf("%s_%d", gv.Name, i)
				if written[gv] {
					elems[i] = m.Reg(name, gv.Type.Elem, 0)
				} else {
					elems[i] = m.Input(name, gv.Type.Elem)
				}
			}
			m.ArrayPort[gv.Name] = elems
			b.arrSig(gv, elems)
		} else {
			var s *Signal
			if written[gv] {
				s = m.Reg(gv.Name, gv.Type, 0)
			} else {
				s = m.Input(gv.Name, gv.Type)
			}
			m.ScalarPort[gv.Name] = s
			b.homeSig(gv, s)
		}
	}
	// Local registers, in stable name order (VarClass is a map, and the
	// declaration order must not depend on map iteration: the emitted
	// HDL is golden-tested byte for byte).
	locals := make([]*ir.Var, 0, len(res.VarClass))
	for v, cls := range res.VarClass {
		if v.IsGlobal || cls != sched.Register {
			continue
		}
		locals = append(locals, v)
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].Name < locals[j].Name })
	for _, v := range locals {
		if v.Type.IsArray() {
			elems := make([]*Signal, v.Type.Len)
			for i := range elems {
				elems[i] = m.Reg(fmt.Sprintf("%s_%d", v.Name, i), v.Type.Elem, 0)
			}
			b.arrSig(v, elems)
		} else {
			b.homeSig(v, m.Reg(v.Name, v.Type, 0))
		}
	}
	// Local arrays that stayed wires are still storage: they must be
	// registers unless written and read within one state; for simplicity
	// and correctness, every local array is a register bank.
	for _, v := range g.Fn.Locals {
		if v.Type.IsArray() && b.arrays[v] == nil {
			elems := make([]*Signal, v.Type.Len)
			for i := range elems {
				elems[i] = m.Reg(fmt.Sprintf("%s_%d", v.Name, i), v.Type.Elem, 0)
			}
			b.arrSig(v, elems)
		}
	}
	if g.RetVar != nil {
		if s := b.homes[g.RetVar]; s != nil {
			m.RetSignal = s
		} else {
			// Wire-classified return: promote to register so the
			// environment can read it after done.
			s := m.Reg(g.RetVar.Name, g.RetVar.Type, 0)
			b.homeSig(g.RetVar, s)
			m.RetSignal = s
			b.forceReg[g.RetVar] = true
		}
	}

	b.exitConds = make([][]*ir.Var, res.NumStates)
	for _, tr := range res.Transitions {
		if tr.Cond != nil {
			b.exitConds[tr.From] = append(b.exitConds[tr.From], tr.Cond)
		}
	}
	for state := 0; state < res.NumStates; state++ {
		if err := b.buildState(state); err != nil {
			return nil, err
		}
	}

	// FSM edges.
	for _, tr := range res.Transitions {
		var cond *Signal
		if tr.Cond != nil {
			cond = b.condAtEnd[stateCond{tr.From, tr.Cond}]
			if cond == nil {
				// The condition was not recomputed in this state:
				// it lives in its home (register) signal.
				cond = b.homes[tr.Cond]
			}
			if cond == nil {
				return nil, fmt.Errorf("rtl: transition condition %s has no signal", tr.Cond.Name)
			}
		}
		m.Trans = append(m.Trans, Transition{From: tr.From, Cond: cond,
			CondValue: tr.CondValue, To: tr.To})
	}
	return m, nil
}

type stateCond struct {
	state int
	v     *ir.Var
}

type builder struct {
	m   *Module
	res *sched.Plan

	homes    map[*ir.Var]*Signal   // scalar home (reg or input) signal
	arrays   map[*ir.Var][]*Signal // array element home signals
	forceReg map[*ir.Var]bool
	// condAtEnd records, per state, the end-of-state signal of each
	// variable used by a transition condition.
	condAtEnd map[stateCond]*Signal
	// exitConds lists each state's transition conditions in FSM order.
	exitConds [][]*ir.Var
}

func (b *builder) homeSig(v *ir.Var, s *Signal) {
	if b.homes == nil {
		b.homes = map[*ir.Var]*Signal{}
		b.arrays = map[*ir.Var][]*Signal{}
		b.forceReg = map[*ir.Var]bool{}
		b.condAtEnd = map[stateCond]*Signal{}
	}
	b.homes[v] = s
}

func (b *builder) arrSig(v *ir.Var, elems []*Signal) {
	if b.homes == nil {
		b.homes = map[*ir.Var]*Signal{}
		b.arrays = map[*ir.Var][]*Signal{}
		b.forceReg = map[*ir.Var]bool{}
		b.condAtEnd = map[stateCond]*Signal{}
	}
	b.arrays[v] = elems
}

// buildState wires one state's datapath and register commits.
func (b *builder) buildState(state int) error {
	m := b.m
	cur := map[*ir.Var]*Signal{}
	curArr := map[*ir.Var][]*Signal{}

	valueOf := func(v *ir.Var) *Signal {
		if s, ok := cur[v]; ok {
			return s
		}
		if s, ok := b.homes[v]; ok {
			return s
		}
		// Wire-classified local read before any write: constant zero.
		return m.ConstSignal(0, v.Type)
	}
	elemsOf := func(v *ir.Var) []*Signal {
		if es, ok := curArr[v]; ok {
			return es
		}
		es := b.arrays[v]
		if es == nil {
			return nil
		}
		cp := append([]*Signal{}, es...)
		curArr[v] = cp
		return cp
	}
	operand := func(o htg.Operand) *Signal {
		if o.IsConst {
			return m.ConstSignal(o.Const, o.Typ)
		}
		return valueOf(o.Var)
	}
	guardOf := func(bb *htg.BasicBlock) *Signal {
		var acc *Signal
		for _, gt := range bb.Guard {
			c := valueOf(gt.Cond)
			if !c.Type.IsBool() {
				c = m.Copy(ir.Bool, c)
			}
			if !gt.Value {
				c = m.Not(c)
			}
			if acc == nil {
				acc = c
			} else {
				acc = m.And(acc, c)
			}
		}
		return acc // nil = unguarded
	}

	sequentialMode := b.res.Mode == sched.ModeSequential

	for _, op := range b.res.OpOrder[state] {
		var guard *Signal
		if !sequentialMode {
			guard = guardOf(op.BB)
		}
		switch op.Kind {
		case htg.OpBin, htg.OpUn, htg.OpMux, htg.OpCopy, htg.OpLoad:
			var out *Signal
			t := op.Dst.Type
			switch op.Kind {
			case htg.OpBin:
				a := operand(op.Args[0])
				c := operand(op.Args[1])
				out = m.Bin(op.Bin, binType(op), op.UnsignedOps, a, c)
				out = m.Copy(t, out)
			case htg.OpUn:
				out = m.Copy(t, m.Un(op.Un, t, operand(op.Args[0])))
			case htg.OpMux:
				sel := operand(op.Args[0])
				if !sel.Type.IsBool() {
					sel = m.Copy(ir.Bool, sel)
				}
				out = m.Mux(t, sel, m.Copy(t, operand(op.Args[1])), m.Copy(t, operand(op.Args[2])))
			case htg.OpCopy:
				out = m.Copy(t, operand(op.Args[0]))
			case htg.OpLoad:
				elems := elemsOf(op.Arr)
				if elems == nil {
					return fmt.Errorf("rtl: array %s has no storage", op.Arr.Name)
				}
				if op.Args[0].IsConst {
					idx := op.Args[0].Const
					if idx >= 0 && idx < int64(len(elems)) {
						out = m.Copy(t, elems[idx])
					} else {
						out = m.ConstSignal(0, t)
					}
				} else {
					out = m.Copy(t, m.ArrayRead(op.Arr.Type.Elem, operand(op.Args[0]), elems))
				}
			}
			if guard != nil {
				out = m.Mux(t, guard, out, valueOf(op.Dst))
			}
			cur[op.Dst] = out
		case htg.OpStore:
			elems := elemsOf(op.Arr)
			if elems == nil {
				return fmt.Errorf("rtl: array %s has no storage", op.Arr.Name)
			}
			val := operand(op.Args[1])
			et := op.Arr.Type.Elem
			if op.Args[0].IsConst {
				idx := op.Args[0].Const
				if idx < 0 || idx >= int64(len(elems)) {
					continue // out-of-range store: dropped
				}
				nv := m.Copy(et, val)
				if guard != nil {
					nv = m.Mux(et, guard, nv, elems[idx])
				}
				elems[idx] = nv
			} else {
				idxSig := operand(op.Args[0])
				for k := range elems {
					hit := m.Bin(ir.OpEq, ir.Bool, true, idxSig,
						m.ConstSignal(int64(k), idxSig.Type))
					en := hit
					if guard != nil {
						en = m.And(guard, hit)
					}
					elems[k] = m.Mux(et, en, m.Copy(et, val), elems[k])
				}
			}
			curArr[op.Arr] = elems
		}
	}

	// Commit registers: any register whose current value changed. The
	// commit order is sorted by name so RegWrites — and therefore the
	// emitted HDL — never depend on map iteration.
	for _, v := range sortedVars(cur) {
		s := cur[v]
		home := b.homes[v]
		if home == nil || home.Kind != SigReg {
			continue
		}
		if s != home {
			b.m.RegWrites = append(b.m.RegWrites, RegWrite{Reg: home, State: state, Value: s})
		}
	}
	for _, v := range sortedVars(curArr) {
		elems := curArr[v]
		home := b.arrays[v]
		for i, s := range elems {
			if home[i].Kind == SigReg && s != home[i] {
				b.m.RegWrites = append(b.m.RegWrites,
					RegWrite{Reg: home[i], State: state, Value: s})
			}
		}
	}
	// Record end-of-state condition signals for FSM edges out of this
	// state.
	for _, cond := range b.exitConds[state] {
		b.condAtEnd[stateCond{state, cond}] = valueOfEnd(cur, b.homes, cond, b.m)
	}
	return nil
}

func valueOfEnd(cur map[*ir.Var]*Signal, homes map[*ir.Var]*Signal, v *ir.Var, m *Module) *Signal {
	if s, ok := cur[v]; ok {
		return s
	}
	if s, ok := homes[v]; ok {
		return s
	}
	return m.ConstSignal(0, v.Type)
}

// binType computes the natural result type of a binary op from its operand
// types (matching ir.Bin's typing), so the gate computes at the right
// width before the final Copy narrows or widens to the destination.
func binType(op *htg.Op) *ir.Type {
	lt, rt := op.Args[0].Typ, op.Args[1].Typ
	e := ir.Bin(op.Bin, typedZero(lt), typedZero(rt))
	return e.Type()
}

func typedZero(t *ir.Type) ir.Expr { return ir.C(0, t) }
