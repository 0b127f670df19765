package transform

import (
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
			n := f.NumberVars(p.Globals)
			c := cse{avail: newScoped[uint64, *available](), stamps: newVarScoped[int](n)}
			if c.block(f.Body) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// cse is one function walk. Writes are not applied to the available
// expressions; each bumps the written variable's stamp instead, and a
// lookup accepts an entry only if nothing it depends on has been written
// since it was made. A call stamps called. Branches and loop bodies are
// scopes of both tables and of called, so what they make available and
// the stamps they bump are rolled back on exit.
type cse struct {
	avail  scoped[uint64, *available] // structural hash -> entries, newest first
	stamps varScoped[int]             // when each variable was last written
	called int                        // when a call last wrote any global
	now    int
	// written holds the variables the branches of the ifs being walked
	// wrote, to be killed after each if.
	written []*ir.Var
}

// available is an expression whose value holder got at time at.
type available struct {
	expr   ir.Expr
	holder *ir.Var
	at     int
	next   *available // an older entry under the same hash
}

// kill records a write to v.
func (c *cse) kill(v *ir.Var) {
	c.now++
	c.stamps.set(v, c.now)
}

// clobberGlobals records a call, which may write any global.
func (c *cse) clobberGlobals() {
	c.now++
	c.called = c.now
}

func (c *cse) stamp(v *ir.Var) int {
	t, _ := c.stamps.get(v)
	return t
}

// find returns the entry holding e's value, or nil. Only the newest
// entry for e is checked: an older one was already stale when the newer
// was made, and a stale entry stays stale within its scope.
func (c *cse) find(h uint64, e ir.Expr) *available {
	for a, _ := c.avail.get(h); a != nil; a = a.next {
		if exprEqual(a.expr, e) {
			if !c.fresh(a) {
				return nil
			}
			return a
		}
	}
	return nil
}

// fresh reports whether nothing a depends on was written after it was
// made: its holder, what its expression reads, and, if either is a
// global, anything a call may write.
func (c *cse) fresh(a *available) bool {
	written := func(v *ir.Var) bool {
		return c.stamp(v) > a.at || v.IsGlobal && c.called > a.at
	}
	return !written(a.holder) && !anyRead(a.expr, written)
}

// add makes e available in holder, dropping a stale entry for e at the
// head of its list.
func (c *cse) add(h uint64, e ir.Expr, holder *ir.Var) {
	next, _ := c.avail.get(h)
	if next != nil && exprEqual(next.expr, e) {
		next = next.next
	}
	c.avail.set(h, &available{expr: e, holder: holder, at: c.now, next: next})
}

// block eliminates common subexpressions in b, given what is available
// on entry, and reports whether anything changed.
func (c *cse) block(b *ir.Block) bool {
	changed := false
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if c.assign(x) {
				changed = true
			}
		case *ir.IfStmt:
			if c.branches(x) {
				changed = true
			}
		case *ir.ForStmt:
			if c.loop(x, x.Body) {
				changed = true
			}
		case *ir.WhileStmt:
			if c.loop(x, x.Body) {
				changed = true
			}
		case *ir.ExprStmt:
			c.clobberGlobals()
		case *ir.Block:
			if c.block(x) {
				changed = true
			}
		}
	}
	return changed
}

// branches walks each branch of x in its own scope. Afterwards, what
// either branch wrote is killed: the conservative join.
func (c *cse) branches(x *ir.IfStmt) bool {
	changed, calls := false, false
	base := len(c.written)
	for _, br := range [...]*ir.Block{x.Then, x.Else} {
		if br == nil {
			continue
		}
		called := c.push()
		if c.block(br) {
			changed = true
		}
		for _, ch := range c.stamps.touched() {
			c.written = append(c.written, ch.k)
		}
		calls = calls || c.called != called
		c.pop(called)
	}
	for _, v := range c.written[base:] {
		c.kill(v)
	}
	c.written = c.written[:base]
	if calls {
		c.clobberGlobals()
	}
	return changed
}

// loop invalidates everything loop writes, then eliminates common
// subexpressions in its body, in a scope, with what survives.
func (c *cse) loop(loop ir.Stmt, body *ir.Block) bool {
	killWritten(c, []ir.Stmt{loop})
	called := c.push()
	changed := c.block(body)
	c.pop(called)
	return changed
}

// push opens a scope and returns what pop needs to close it.
func (c *cse) push() (called int) {
	c.avail.push()
	c.stamps.push()
	return c.called
}

// pop closes the innermost scope.
func (c *cse) pop(called int) {
	c.stamps.pop()
	c.avail.pop()
	c.called = called
}

// assign replaces the right-hand side of x with a copy when an equal
// expression is available, then records what x makes available.
func (c *cse) assign(x *ir.AssignStmt) bool {
	rhs, changed := x.RHS, false
	reuse := isNontrivial(rhs) && IsPure(rhs)
	var h uint64
	if reuse {
		h = hashExpr(rhs)
		if a := c.find(h, rhs); a != nil {
			x.RHS = ir.Cast(ir.V(a.holder), x.LHS.Type())
			changed = true
		}
	} else if _, isCall := rhs.(*ir.CallExpr); isCall {
		c.clobberGlobals()
	}
	c.kill(ir.StmtWrites(x))
	lv, ok := x.LHS.(*ir.VarExpr)
	if !reuse || !ok || !rhs.Type().Equal(lv.V.Type) || c.find(h, rhs) != nil {
		return changed
	}
	// The entry is the original expression, the one the hash names: a
	// later write to any of its inputs must invalidate it.
	if !anyRead(rhs, func(v *ir.Var) bool { return v == lv.V }) {
		c.add(h, rhs, lv.V)
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

// anyRead reports whether pred holds for a variable or array e reads.
func anyRead(e ir.Expr, pred func(*ir.Var) bool) bool {
	switch x := e.(type) {
	case *ir.VarExpr:
		return pred(x.V)
	case *ir.IndexExpr:
		return pred(x.Arr) || anyRead(x.Index, pred)
	case *ir.BinExpr:
		return anyRead(x.L, pred) || anyRead(x.R, pred)
	case *ir.UnExpr:
		return anyRead(x.X, pred)
	case *ir.CastExpr:
		return anyRead(x.X, pred)
	case *ir.SelExpr:
		return anyRead(x.Cond, pred) || anyRead(x.Then, pred) || anyRead(x.Else, pred)
	case *ir.CallExpr:
		for _, a := range x.Args {
			if anyRead(a, pred) {
				return true
			}
		}
	}
	return false
}

// hashExpr is a structural hash of a pure expression: operators, types,
// constant values and variable IDs. Expressions exprEqual accepts hash
// alike, since the variables of the function walked are numbered.
func hashExpr(e ir.Expr) uint64 {
	switch x := e.(type) {
	case *ir.ConstExpr:
		return mix(mix(1, hashType(x.Typ)), uint64(x.Val))
	case *ir.VarExpr:
		return mix(2, uint64(x.V.ID))
	case *ir.IndexExpr:
		return mix(mix(3, uint64(x.Arr.ID)), hashExpr(x.Index))
	case *ir.BinExpr:
		h := mix(mix(4, uint64(x.Op)), hashType(x.Typ))
		return mix(mix(h, hashExpr(x.L)), hashExpr(x.R))
	case *ir.UnExpr:
		return mix(mix(mix(5, uint64(x.Op)), hashType(x.Typ)), hashExpr(x.X))
	case *ir.CastExpr:
		return mix(mix(6, hashType(x.Typ)), hashExpr(x.X))
	case *ir.SelExpr:
		h := mix(7, hashType(x.Typ))
		return mix(mix(mix(h, hashExpr(x.Cond)), hashExpr(x.Then)), hashExpr(x.Else))
	}
	return 0
}

// hashType hashes what ir.Type.Equal compares of a scalar type.
func hashType(t *ir.Type) uint64 {
	if !t.IsInt() {
		return uint64(t.Kind)
	}
	h := uint64(t.Bits) << 9
	if t.Signed {
		h |= 1 << 8
	}
	return h
}

// mix folds v into h.
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	return h * 0xff51afd7ed558ccd
}
