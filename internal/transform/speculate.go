package transform

import (
	"sparkgo/internal/ir"
)

// Speculate performs the paper's speculation transformation (Fig 11): every
// side-effect-free computation inside a conditional branch is hoisted above
// the conditional into a fresh temporary, executing unconditionally
// ("speculatively"); the branch retains only the copy that commits the
// speculated value. Nested conditionals are processed innermost-first, so
// their (hoisted) condition computations bubble all the way up — the
// paper's early condition execution. The result is the Fig 11 shape:
//
//	all data calculation up-front, speculatively
//	followed by a pure selection (control) structure
//
// which the scheduler maps to parallel functional units feeding
// multiplexers.
//
// Safety argument. A hoisted statement "v = RHS" becomes "t = RHS'" above
// the conditional plus the commit copy "v = t" in its original place, with
// t fresh. Because the commit stays in place and in order, every statement
// remaining in the branch observes exactly the values it did before — no
// in-branch rewriting is needed. RHS' renames reads of previously-hoisted
// variables to their temporaries (pre-branch, the commits have not executed
// yet). A statement may hoist only if RHS' is pure (no calls — run Inline
// first) and reads nothing "dirty": a variable whose latest in-branch write
// could not be hoisted (array stores, nested-conditional writes, loop
// writes, call effects). Such reads are only meaningful after the
// conditional write executes, so the computation must stay conditional.
func Speculate() Pass {
	return PassFunc{PassName: "speculate", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			n := f.NumberVars(p.Globals)
			sp := &speculator{fn: f, globals: p.Globals, rename: make([]*ir.Var, n), dirty: newVarSet(n)}
			if sp.block(f.Body) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// speculator is one walk over a function. rename and dirty describe the
// branch being hoisted from, and are indexed by variable ID; touched
// lists what they hold, so each branch starts them empty at the cost of
// what the previous one wrote.
type speculator struct {
	fn      *ir.Func
	globals []*ir.Var
	rename  []*ir.Var // by ID: the temp that holds the variable's speculated value
	dirty   varSet    // variables with a non-hoisted in-branch write
	touched []*ir.Var
}

// renamed returns v's speculation temp, or nil.
func (sp *speculator) renamed(v *ir.Var) *ir.Var {
	if int(v.ID) < len(sp.rename) {
		return sp.rename[v.ID]
	}
	return nil
}

// setRename records that t holds v's speculated value (t nil: none),
// and that v is not dirty.
func (sp *speculator) setRename(v, t *ir.Var) {
	if int(v.ID) >= len(sp.rename) {
		// v is a temp this walk made: grow both tables.
		n := max(int(v.ID)+1, 2*len(sp.rename))
		sp.rename = append(sp.rename, make([]*ir.Var, n-len(sp.rename))...)
		sp.dirty = append(sp.dirty, make(varSet, (n+63)/64-len(sp.dirty))...)
	}
	sp.rename[v.ID] = t
	sp.dirty.drop(v)
	sp.touched = append(sp.touched, v)
}

// setDirty marks v dirty and drops its speculation temp.
func (sp *speculator) setDirty(v *ir.Var) {
	sp.setRename(v, nil)
	sp.dirty.add(v)
}

// reset empties rename and dirty.
func (sp *speculator) reset() {
	for _, v := range sp.touched {
		sp.rename[v.ID] = nil
		sp.dirty.drop(v)
	}
	sp.touched = sp.touched[:0]
}

// block processes a statement list, returning whether anything changed.
// Hoisted code lands immediately before the conditional it came from.
func (sp *speculator) block(b *ir.Block) bool {
	changed := false
	b.Stmts = splice(b.Stmts, func(s ir.Stmt) ([]ir.Stmt, bool) {
		switch x := s.(type) {
		case *ir.IfStmt:
			hoisted, ch := sp.speculateIf(x)
			changed = changed || ch
			if len(hoisted) == 0 {
				return nil, false
			}
			return append(hoisted, x), true
		case *ir.ForStmt:
			changed = sp.block(x.Body) || changed
		case *ir.WhileStmt:
			changed = sp.block(x.Body) || changed
		case *ir.Block:
			changed = sp.block(x) || changed
		}
		return nil, false
	})
	return changed
}

// speculateIf hoists computation out of one conditional (after processing
// nested conditionals), returning the statements to place before it.
func (sp *speculator) speculateIf(ifs *ir.IfStmt) ([]ir.Stmt, bool) {
	changed := false
	// Innermost-first: speculate inside the branches, so nested hoisted
	// code sits at branch top level where this pass can lift it further.
	if sp.block(ifs.Then) {
		changed = true
	}
	if ifs.Else != nil && sp.block(ifs.Else) {
		changed = true
	}

	var hoisted []ir.Stmt
	h, ch := sp.hoistBranch(ifs.Then)
	hoisted = append(hoisted, h...)
	changed = changed || ch
	if ifs.Else != nil {
		h, ch = sp.hoistBranch(ifs.Else)
		hoisted = append(hoisted, h...)
		changed = changed || ch
	}
	return hoisted, changed
}

// hoistBranch lifts hoistable assignments out of one branch (see the
// package-level safety argument on Speculate).
func (sp *speculator) hoistBranch(branch *ir.Block) ([]ir.Stmt, bool) {
	changed := false
	var hoisted []ir.Stmt
	defer sp.reset()

	applyRename := func(e ir.Expr) ir.Expr {
		return ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
			if v, ok := x.(*ir.VarExpr); ok {
				if t := sp.renamed(v.V); t != nil {
					return ir.V(t)
				}
			}
			return x
		})
	}
	markDirty := func(s ir.Stmt) {
		if writesOf(s, sp.setDirty) {
			// A call may write any global.
			for _, g := range sp.globals {
				sp.setDirty(g)
			}
		}
	}

	for i, s := range branch.Stmts {
		a, isAssign := s.(*ir.AssignStmt)
		if !isAssign {
			markDirty(s)
			continue
		}
		lhsVar, isVarDst := a.LHS.(*ir.VarExpr)
		if !isVarDst {
			markDirty(s) // array store stays conditional
			continue
		}
		if _, isCall := a.RHS.(*ir.CallExpr); isCall {
			markDirty(s)
			continue
		}
		// A bare commit copy "v = t" needs no new temp.
		if src, isCopy := a.RHS.(*ir.VarExpr); isCopy {
			t := sp.renamed(src.V)
			if t != nil {
				a.RHS = ir.V(t)
			}
			if !sp.dirty.has(src.V) {
				// v now equals a pre-branch-computable value: its
				// temp if it has one, else itself.
				if t == nil {
					t = src.V
				}
				sp.setRename(lhsVar.V, t)
			} else {
				sp.setDirty(lhsVar.V)
			}
			continue
		}
		rhs := applyRename(a.RHS)
		if !IsPure(rhs) || anyRead(rhs, sp.dirty.has) {
			a.RHS = rhs
			sp.setDirty(lhsVar.V)
			continue
		}
		// Hoist: t = RHS' above; commit copy v = t in place.
		t := sp.fn.NewTemp("spec_"+lhsVar.V.Name, lhsVar.V.Type)
		hoisted = append(hoisted, ir.AssignRaw(ir.V(t), rhs))
		branch.Stmts[i] = ir.Assign(ir.V(lhsVar.V), ir.V(t))
		sp.setRename(lhsVar.V, t)
		changed = true
	}
	return hoisted, changed
}
