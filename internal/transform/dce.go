package transform

import (
	"slices"

	"sparkgo/internal/ir"
)

// DCE is dead-code elimination: assignments whose destination is never
// subsequently read are removed, empty conditionals and loops collapse, and
// unreferenced locals are dropped from the function. Writes to globals are
// always observable (globals are the block's architectural outputs), as are
// call statements.
//
// The paper relies on DCE to clean up after every coarse transformation:
// eliminated loop-index variables (Fig 14), dead copies from inlining and
// speculation, and the "unnecessary variables and variable copies" of the
// wire-variable insertion of §3.1.2.
func DCE() Pass {
	return PassFunc{PassName: "dce", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			n := f.NumberVars(p.Globals)
			d := &dce{globals: len(p.Globals), words: (n + 63) / 64}
			f.Body.Stmts = d.block(f.Body.Stmts, d.exitLive(), true)
			if pruneLocals(f, d.words) || d.changed {
				changed = true
			}
		}
		return changed, nil
	}}
}

// dce is one backward liveness walk over a function. Without sweep it
// only computes liveness; with sweep it also removes what is dead.
type dce struct {
	globals int // the globals are the variables numbered below this
	words   int // the length of every live set
	free    []varSet
	changed bool
}

// exitLive is the liveness at function exit: every global (the outside
// world observes them).
func (d *dce) exitLive() varSet {
	l := make(varSet, d.words)
	l.addFirst(d.globals)
	return l
}

// clone returns a copy of l, reusing a set released earlier if it can.
func (d *dce) clone(l varSet) varSet {
	var c varSet
	if n := len(d.free); n > 0 {
		c, d.free = d.free[n-1], d.free[:n-1]
	} else {
		c = make(varSet, d.words)
	}
	copy(c, l)
	return c
}

// release hands back a set clone returned, which is no longer used.
func (d *dce) release(l varSet) { d.free = append(d.free, l) }

// block turns live from the liveness after stmts into the liveness
// before them. With sweep it also drops the dead statements and returns
// the kept ones, in a new slice if it dropped any, so that a block that
// shrank does not keep its old backing array alive; without, it returns
// stmts as they were.
func (d *dce) block(stmts []ir.Stmt, live varSet, sweep bool) []ir.Stmt {
	kept := len(stmts)
	for i := len(stmts) - 1; i >= 0; i-- {
		if d.stmt(stmts[i], live, sweep) || !sweep {
			kept--
			stmts[kept] = stmts[i]
		} else {
			d.changed = true
		}
	}
	if kept > 0 {
		return slices.Clone(stmts[kept:])
	}
	return stmts
}

// stmt turns live from the liveness after s into the liveness before it
// and reports whether s stays. A statement that does not stay leaves live
// as it was.
func (d *dce) stmt(s ir.Stmt, live varSet, sweep bool) bool {
	switch x := s.(type) {
	case *ir.AssignStmt:
		if dead(x, live) {
			return false
		}
		switch lhs := x.LHS.(type) {
		case *ir.VarExpr:
			live.drop(lhs.V)
		case *ir.IndexExpr:
			// A store writes one element, so it does not kill the array.
			live.addReads(lhs.Index)
		}
		if call, isCall := x.RHS.(*ir.CallExpr); isCall {
			d.callReads(call.Args, live)
		} else {
			live.addReads(x.RHS)
		}
	case *ir.IfStmt:
		then := d.clone(live)
		x.Then.Stmts = d.block(x.Then.Stmts, then, sweep)
		if x.Else != nil {
			x.Else.Stmts = d.block(x.Else.Stmts, live, sweep)
			if sweep && len(x.Else.Stmts) == 0 {
				x.Else = nil
			}
		}
		if sweep && len(x.Then.Stmts) == 0 {
			if x.Else == nil {
				return false
			}
			// Normalize: if (c) {} else {B}  →  if (!c) {B}
			x.Cond = FoldExpr(ir.Un(ir.OpLNot, x.Cond))
			x.Then, x.Else = x.Else, nil
			d.changed = true
		}
		live.addAll(then)
		d.release(then)
		live.addReads(x.Cond)
	case *ir.ForStmt:
		if sweep && !d.sweepLoop(x.Cond, x.Body, x.Post, live) && dead(x.Init, live) && dead(x.Post, live) {
			return false
		}
		d.loop(x.Cond, x.Body.Stmts, x.Post, live)
		if x.Init != nil {
			d.stmt(x.Init, live, false)
		}
	case *ir.WhileStmt:
		if sweep && !d.sweepLoop(x.Cond, x.Body, nil, live) {
			return false
		}
		d.loop(x.Cond, x.Body.Stmts, nil, live)
	case *ir.ReturnStmt:
		// Function exits: only globals (and the value) matter.
		clear(live)
		live.addFirst(d.globals)
		if x.Val != nil {
			live.addReads(x.Val)
		}
	case *ir.ExprStmt:
		d.callReads(x.Call.Args, live)
	case *ir.Block:
		x.Stmts = d.block(x.Stmts, live, sweep)
		return !sweep || len(x.Stmts) > 0
	}
	return true
}

// callReads adds what a call reads: its arguments and, since the callee
// may read any global, every global.
func (d *dce) callReads(args []ir.Expr, live varSet) {
	for _, a := range args {
		live.addReads(a)
	}
	live.addFirst(d.globals)
}

// loop turns live from the liveness after a loop into the liveness at its
// head: the fixed point over the back edge of body then post, with the
// condition read on every entry.
func (d *dce) loop(cond ir.Expr, body []ir.Stmt, post *ir.AssignStmt, live varSet) {
	live.addReads(cond)
	in := d.clone(live)
	defer d.release(in)
	for {
		if post != nil {
			d.stmt(post, in, false)
		}
		d.block(body, in, false)
		in.addReads(cond)
		if !live.addAll(in) {
			return
		}
		copy(in, live)
	}
}

// sweepLoop removes the dead statements of a loop body against the
// liveness at the loop's head, given the liveness after the loop, and
// reports whether the body kept any.
func (d *dce) sweepLoop(cond ir.Expr, body *ir.Block, post *ir.AssignStmt, after varSet) bool {
	head := d.clone(after)
	defer d.release(head)
	d.loop(cond, body.Stmts, post, head)
	body.Stmts = d.block(body.Stmts, head, true)
	return len(body.Stmts) > 0
}

// dead reports whether dropping the assignment is unobservable: it is
// absent, or it writes a local no later statement reads and calls nothing.
func dead(a *ir.AssignStmt, live varSet) bool {
	if a == nil {
		return true
	}
	if _, isCall := a.RHS.(*ir.CallExpr); isCall {
		return false
	}
	v := ir.StmtWrites(a)
	return !live.has(v) && !v.IsGlobal
}

// pruneLocals removes the locals of f that no longer appear anywhere in
// its body. f's variables are numbered, and words is the length of a set
// over them.
func pruneLocals(f *ir.Func, words int) bool {
	used := make(varSet, words)
	ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
		ir.WalkStmtExprs(s, used.addReads)
		return true
	})
	var kept []*ir.Var
	for _, v := range f.Locals {
		if v.IsParam || used.has(v) {
			kept = append(kept, v)
		}
	}
	changed := len(kept) != len(f.Locals)
	f.SetLocals(kept)
	return changed
}
