package transform

import (
	"maps"

	"sparkgo/internal/ir"
)

// CSE performs common-subexpression elimination on whole right-hand sides:
// when the same pure expression is assigned twice with no intervening write
// to any of its inputs, the second assignment becomes a copy of the first
// destination. After inlining and unrolling the ILD this removes the
// duplicate byte loads and the repeated Need/LengthContribution lookups
// that adjacent four-byte windows share.
//
// Availability is tracked flow-sensitively: an expression is invalidated by
// a write to any variable (or array) it reads; facts established inside a
// conditional branch do not survive the join, but outer facts flow into
// branches (dominator availability).
func CSE() Pass {
	return PassFunc{PassName: "cse", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			if cseBlock(f.Body, availMap{}) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// available is an expression whose value a variable holds.
type available struct {
	holder *ir.Var
	reads  map[*ir.Var]bool // what the expression reads
}

// availMap maps a canonical expression rendering to where its value is
// available. Entries are never mutated, so clones share them.
type availMap map[string]*available

// clone copies the map at its current size: kills leave the table
// larger than its contents, and maps.Clone would copy every slot.
func (a availMap) clone() availMap {
	n := make(availMap, len(a))
	maps.Copy(n, a)
	return n
}

// kill drops the expressions a write to v invalidates: those v holds and
// those that read v.
func (a availMap) kill(v *ir.Var) {
	for k, e := range a {
		if e.holder == v || e.reads[v] {
			delete(a, k)
		}
	}
}

// clobberGlobals drops the expressions a call invalidates: those a global
// holds and those that read one.
func (a availMap) clobberGlobals() {
	for k, e := range a {
		if e.holder.IsGlobal || readsGlobal(e.reads) {
			delete(a, k)
		}
	}
}

func readsGlobal(reads map[*ir.Var]bool) bool {
	for v := range reads {
		if v.IsGlobal {
			return true
		}
	}
	return false
}

// keyOf renders an expression canonically (PrintExpr is deterministic and
// includes variable names, operators, and constant values; variable names
// are unique within a function, so collisions cannot occur).
func keyOf(e ir.Expr) string { return e.Type().String() + "|" + ir.PrintExpr(e) }

// cseBlock eliminates common subexpressions in b given the expressions
// available on entry, updating avail in place, and reports whether
// anything changed.
func cseBlock(b *ir.Block, avail availMap) bool {
	changed := false
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if cseAssign(x, avail) {
				changed = true
			}
		case *ir.IfStmt:
			if cseBlock(x.Then, avail.clone()) {
				changed = true
			}
			if x.Else != nil && cseBlock(x.Else, avail.clone()) {
				changed = true
			}
			// Conservative join: drop facts about anything written in
			// either branch.
			killWritten(avail, []ir.Stmt{x})
		case *ir.ForStmt:
			if cseLoop(x, x.Body, avail) {
				changed = true
			}
		case *ir.WhileStmt:
			if cseLoop(x, x.Body, avail) {
				changed = true
			}
		case *ir.ExprStmt:
			avail.clobberGlobals()
		case *ir.Block:
			if cseBlock(x, avail) {
				changed = true
			}
		}
	}
	return changed
}

// cseLoop invalidates everything loop writes, then eliminates common
// subexpressions in its body with the surviving facts.
func cseLoop(loop ir.Stmt, body *ir.Block, avail availMap) bool {
	killWritten(avail, []ir.Stmt{loop})
	return cseBlock(body, avail.clone())
}

// cseAssign replaces the right-hand side of x with a copy when an equal
// expression is available, then records what x makes available.
func cseAssign(x *ir.AssignStmt, avail availMap) bool {
	rhs, changed := x.RHS, false
	reuse := isNontrivial(rhs) && IsPure(rhs)
	var key string
	if reuse {
		key = keyOf(rhs)
		if e, ok := avail[key]; ok {
			x.RHS = ir.Cast(ir.V(e.holder), x.LHS.Type())
			changed = true
		}
	} else if _, isCall := rhs.(*ir.CallExpr); isCall {
		avail.clobberGlobals()
	}
	avail.kill(ir.StmtWrites(x))
	lv, ok := x.LHS.(*ir.VarExpr)
	if !reuse || !ok || !rhs.Type().Equal(lv.V.Type) {
		return changed
	}
	if _, has := avail[key]; has {
		return changed
	}
	// The read set is that of the original expression, the one the key
	// names: a later write to any of its inputs must kill the fact.
	reads := map[*ir.Var]bool{}
	ir.VarsRead(rhs, reads)
	if !reads[lv.V] {
		avail[key] = &available{lv.V, reads}
	}
	return changed
}

// isNontrivial reports whether an expression is worth deduplicating:
// constants, bare variable reads, and casts of variables are cheaper than
// the copy CSE would introduce.
func isNontrivial(e ir.Expr) bool {
	switch x := e.(type) {
	case *ir.ConstExpr, *ir.VarExpr:
		return false
	case *ir.CastExpr:
		return isNontrivial(x.X)
	}
	return true
}
