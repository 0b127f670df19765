package transform

import (
	"sparkgo/internal/ir"
)

// NormalizeWhile implements the source-level transformation the paper
// proposes as future work (§7, Fig 16): rewriting the "succinct and
// natural" data-dependent while-form of a block into the synthesizable
// counted-loop form of Fig 10.
//
// The pattern recognized is a while loop driven by a monotonically
// increasing cursor variable X:
//
//	X = lo;                       // constant initialization just before
//	#bound N
//	while (X <= hi) {             // hi a constant
//	    ... body using X ...
//	    X += step;                // sole write to X, at body top level
//	}
//
// which becomes the guarded sweep (the Fig 10 shape the rest of the
// pipeline knows how to parallelize):
//
//	X = lo;
//	for (i = lo; i <= hi; i = i + 1) {
//	    if (i == X) { ... body with reads of X replaced by i ... }
//	}
//
// Correctness requires that the body executes at most once per cursor
// value, i.e. the step is >= 1 whenever the loop continues. Two proofs are
// accepted:
//
//  1. syntactic: the step expression is a positive constant or a
//     non-wrapping "positive-constant + unsigned" sum;
//  2. determinism + the designer's #bound assertion: the step is a
//     variable whose defining computation depends only on the cursor and
//     on state the loop body never writes. Re-executing the body at an
//     unchanged cursor would then recompute the same step; were the step
//     zero, the loop would spin forever on that cursor, contradicting the
//     asserted bound — so on every continuing iteration the step is
//     positive. (This is exactly the ILD argument: the length of the
//     instruction at byte X depends only on X and the read-only
//     instruction buffer, and instruction lengths are at least one byte.)
func NormalizeWhile() Pass {
	return PassFunc{PassName: "normalize-while", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			ir.RewriteBlocks(f.Body, func(stmts []ir.Stmt) []ir.Stmt {
				var out []ir.Stmt
				for i := 0; i < len(stmts); i++ {
					s := stmts[i]
					w, ok := s.(*ir.WhileStmt)
					if !ok || len(out) == 0 {
						out = append(out, s)
						continue
					}
					initAssign, ok := out[len(out)-1].(*ir.AssignStmt)
					if !ok {
						out = append(out, s)
						continue
					}
					forLoop, ok := normalizeOne(p, f, w, initAssign)
					if !ok {
						out = append(out, s)
						continue
					}
					changed = true
					out = append(out, forLoop)
				}
				return out
			})
		}
		return changed, nil
	}}
}

// normalizeOne attempts the rewrite for one while loop preceded by the
// given assignment, returning the replacement for the while statement.
func normalizeOne(p *ir.Program, f *ir.Func, w *ir.WhileStmt, initAssign *ir.AssignStmt) (ir.Stmt, bool) {
	// Initialization: "X = lo" with lo constant.
	xv, ok := initAssign.LHS.(*ir.VarExpr)
	if !ok {
		return nil, false
	}
	x := xv.V
	lo, ok := initAssign.RHS.(*ir.ConstExpr)
	if !ok {
		return nil, false
	}
	// Condition: "X <= hi" or "X < hi" with hi constant.
	cond, ok := w.Cond.(*ir.BinExpr)
	if !ok {
		return nil, false
	}
	cl, lok := cond.L.(*ir.VarExpr)
	hi, rok := cond.R.(*ir.ConstExpr)
	if !lok || !rok || cl.V != x {
		return nil, false
	}
	var hiVal int64
	switch cond.Op {
	case ir.OpLe:
		hiVal = hi.Val
	case ir.OpLt:
		hiVal = hi.Val - 1
	default:
		return nil, false
	}
	if hiVal < lo.Val || lo.Val < 0 {
		return nil, false
	}
	if !stepAlwaysPositive(p, w, x) {
		return nil, false
	}
	// Build the sweep.
	i := f.NewTemp("sweep_i", x.Type)
	guard := ir.Bin(ir.OpEq, ir.V(i), ir.V(x))
	body := ir.CloneBlock(w.Body, nil)
	replaceReadsKeepWrites(body, x, i)
	forLoop := &ir.ForStmt{
		Init:  ir.Assign(ir.V(i), ir.C(lo.Val, i.Type)),
		Cond:  ir.Bin(ir.OpLe, ir.V(i), ir.C(hiVal, i.Type)),
		Post:  ir.Assign(ir.V(i), ir.Add(ir.V(i), ir.C(1, i.Type))),
		Body:  ir.NewBlock(ir.If(guard, body, nil)),
		Label: w.Label,
	}
	return forLoop, true
}

// stepAlwaysPositive verifies X is written exactly once, at the body's top
// level, as "X = X + step", and that step is provably positive on every
// continuing iteration (see NormalizeWhile's two accepted proofs).
func stepAlwaysPositive(p *ir.Program, w *ir.WhileStmt, x *ir.Var) bool {
	body := w.Body
	writes := 0
	var step ir.Expr
	for _, s := range body.Stmts {
		writesX := false
		calls := writesOf(s, func(v *ir.Var) { writesX = writesX || v == x })
		if calls && x.IsGlobal {
			// A call might write a global cursor: reject.
			if _, isAssignToX := xWrite(s, x); !isAssignToX {
				return false
			}
		}
		if !writesX {
			continue
		}
		a, isAssignToX := xWrite(s, x)
		if !isAssignToX {
			return false
		}
		writes++
		rhs := a.RHS
		if c, isCast := rhs.(*ir.CastExpr); isCast {
			rhs = c.X
		}
		bin, ok := rhs.(*ir.BinExpr)
		if !ok || bin.Op != ir.OpAdd {
			return false
		}
		if lr, isV := bin.L.(*ir.VarExpr); isV && lr.V == x {
			step = bin.R
		} else if rr, isV := bin.R.(*ir.VarExpr); isV && rr.V == x {
			step = bin.L
		} else {
			return false
		}
	}
	if writes != 1 || step == nil {
		return false
	}
	if strictlyPositive(step) {
		return true
	}
	if w.Bound > 0 {
		return stepDeterministic(p, body, x, step)
	}
	return false
}

// xWrite returns the top-level assignment if s assigns directly to x.
func xWrite(s ir.Stmt, x *ir.Var) (*ir.AssignStmt, bool) {
	a, ok := s.(*ir.AssignStmt)
	if !ok {
		return nil, false
	}
	lv, ok := a.LHS.(*ir.VarExpr)
	if !ok || lv.V != x {
		return nil, false
	}
	if _, isCall := a.RHS.(*ir.CallExpr); isCall {
		return nil, false
	}
	return a, true
}

// stepDeterministic implements proof (2): the step is a variable defined
// exactly once at body top level, from inputs the body never writes (other
// than the cursor itself). Then re-execution at an unchanged cursor yields
// an unchanged step, so a zero step would loop forever, contradicting the
// #bound assertion.
func stepDeterministic(p *ir.Program, body *ir.Block, x *ir.Var, step ir.Expr) bool {
	sv, ok := step.(*ir.VarExpr)
	if !ok {
		if c, isCast := step.(*ir.CastExpr); isCast {
			sv, ok = c.X.(*ir.VarExpr)
		}
		if !ok {
			return false
		}
	}
	// Everything the body writes (arrays by variable, calls as globals).
	written := map[*ir.Var]bool{}
	callMayWrite := eachWritten(body.Stmts, func(v *ir.Var) { written[v] = true })

	// Find the defining assignments of the step variable at top level.
	defs := 0
	okDeps := true
	for _, s := range body.Stmts {
		a, isAssign := s.(*ir.AssignStmt)
		if !isAssign {
			continue
		}
		lv, isV := a.LHS.(*ir.VarExpr)
		if !isV || lv.V != sv.V {
			continue
		}
		defs++
		if call, isCall := a.RHS.(*ir.CallExpr); isCall {
			if call.F == nil || funcWritesState(call.F) {
				okDeps = false
				continue
			}
			for _, arg := range call.Args {
				okDeps = okDeps && readsOnly(arg, x, written)
			}
			// Globals the callee reads must not be written by the body.
			for g := range funcReadsGlobals(call.F) {
				if written[g] || (callMayWrite && g.IsGlobal && bodyCallsCanWrite(p, body, g)) {
					okDeps = false
				}
			}
		} else {
			okDeps = okDeps && IsPure(a.RHS) && readsOnly(a.RHS, x, written)
		}
	}
	// The step var itself is written by the body (its def) — that is
	// fine; but it must not be written anywhere else (e.g. in nested
	// statements), which 'defs == countWrites' establishes.
	totalWrites := 0
	ir.WalkStmts(body, func(s ir.Stmt) bool {
		if v := ir.StmtWrites(s); v == sv.V {
			totalWrites++
		}
		return true
	})
	return defs == 1 && totalWrites == 1 && okDeps
}

// readsOnly reports whether e reads nothing but x and variables the body
// never writes.
func readsOnly(e ir.Expr, x *ir.Var, written map[*ir.Var]bool) bool {
	ok := true
	ir.WalkExpr(e, func(n ir.Expr) bool {
		switch v := n.(type) {
		case *ir.VarExpr:
			if v.V != x && written[v.V] {
				ok = false
			}
		case *ir.IndexExpr:
			if v.Arr != x && written[v.Arr] {
				ok = false
			}
		case *ir.CallExpr:
			ok = false
		}
		return ok
	})
	return ok
}

// funcWritesState reports whether f (or anything it calls) writes a global
// variable or global array.
func funcWritesState(f *ir.Func) bool {
	writes := false
	ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AssignStmt); ok {
			switch lhs := a.LHS.(type) {
			case *ir.VarExpr:
				if lhs.V.IsGlobal {
					writes = true
				}
			case *ir.IndexExpr:
				if lhs.Arr.IsGlobal {
					writes = true
				}
			}
			if c, isCall := a.RHS.(*ir.CallExpr); isCall && c.F != nil && funcWritesState(c.F) {
				writes = true
			}
		}
		if e, ok := s.(*ir.ExprStmt); ok && e.Call.F != nil && funcWritesState(e.Call.F) {
			writes = true
		}
		return !writes
	})
	return writes
}

// funcReadsGlobals returns the set of globals f (transitively) reads.
func funcReadsGlobals(f *ir.Func) map[*ir.Var]bool {
	out := map[*ir.Var]bool{}
	var visit func(g *ir.Func)
	seen := map[*ir.Func]bool{}
	visit = func(g *ir.Func) {
		if seen[g] {
			return
		}
		seen[g] = true
		ir.WalkStmts(g.Body, func(s ir.Stmt) bool {
			ir.WalkStmtExprs(s, func(e ir.Expr) {
				ir.WalkExpr(e, func(x ir.Expr) bool {
					switch n := x.(type) {
					case *ir.VarExpr:
						if n.V.IsGlobal {
							out[n.V] = true
						}
					case *ir.IndexExpr:
						if n.Arr.IsGlobal {
							out[n.Arr] = true
						}
					case *ir.CallExpr:
						if n.F != nil {
							visit(n.F)
						}
					}
					return true
				})
			})
			return true
		})
	}
	visit(f)
	return out
}

// bodyCallsCanWrite reports whether any call in the body might write g.
func bodyCallsCanWrite(p *ir.Program, body *ir.Block, g *ir.Var) bool {
	can := false
	ir.WalkStmts(body, func(s ir.Stmt) bool {
		ir.WalkStmtExprs(s, func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) bool {
				if c, ok := x.(*ir.CallExpr); ok {
					if c.F == nil || funcWritesState(c.F) {
						can = true
					}
				}
				return true
			})
		})
		return !can
	})
	return can
}

// strictlyPositive conservatively proves an expression is always >= 1:
// a positive constant, or a non-wrapping sum of a positive constant and an
// unsigned value, or a widening cast of such.
func strictlyPositive(e ir.Expr) bool {
	switch x := e.(type) {
	case *ir.ConstExpr:
		return x.Val >= 1
	case *ir.CastExpr:
		if x.Typ.IsInt() && x.X.Type().IsScalar() && x.Typ.Bits >= x.X.Type().Width() {
			return strictlyPositive(x.X)
		}
		return false
	case *ir.BinExpr:
		if x.Op != ir.OpAdd {
			return false
		}
		unsignedNoWrap := func(a, b ir.Expr) bool {
			ca, ok := a.(*ir.ConstExpr)
			if !ok || ca.Val < 1 {
				return false
			}
			bt := b.Type()
			if bt.IsBool() {
				bt = ir.U1
			}
			if !bt.IsInt() || bt.Signed {
				return false
			}
			// a + b >= 1 without wrapping requires the result to
			// accommodate max(b) + a.
			return x.Typ.IsInt() && !x.Typ.Signed &&
				x.Typ.Bits > bt.Bits && ca.Val <= x.Typ.MaxValue()-bt.MaxValue()
		}
		return unsignedNoWrap(x.L, x.R) || unsignedNoWrap(x.R, x.L)
	}
	return false
}

// replaceReadsKeepWrites substitutes reads of x with i throughout the
// block, leaving assignment left-hand sides that target x intact.
func replaceReadsKeepWrites(b *ir.Block, x, i *ir.Var) {
	ir.WalkStmts(b, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AssignStmt); ok {
			if lv, isV := a.LHS.(*ir.VarExpr); isV && lv.V == x {
				a.RHS = substVar(a.RHS, x, i)
				return true
			}
		}
		ir.RewriteStmtExprs(s, func(e ir.Expr) ir.Expr {
			if v, ok := e.(*ir.VarExpr); ok && v.V == x {
				return ir.V(i)
			}
			return e
		})
		return true
	})
}

func substVar(e ir.Expr, from, to *ir.Var) ir.Expr {
	return ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
		if v, ok := x.(*ir.VarExpr); ok && v.V == from {
			return ir.V(to)
		}
		return x
	})
}
