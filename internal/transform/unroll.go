package transform

import (
	"fmt"

	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
)

// DefaultMaxUnroll bounds the trip count a loop may have and still be
// fully unrolled (guards against code explosion, paper §3: "loop unrolling
// can lead to code explosion").
const DefaultMaxUnroll = 4096

// UnrollFull fully unrolls loops (paper Figs 2 and 13). For counted loops
// the trip count is derived statically by symbolic execution of the index
// recurrence under bit-accurate semantics; each iteration is replicated as
// "body; post" so that constant propagation can subsequently eliminate the
// index variable (Figs 3a and 14). Bounded while-loops (#bound N) are
// replicated as N nested guards, which preserves exact semantics for any
// loop whose real trip count never exceeds the bound.
//
// labels selects loops by label; nil unrolls every loop in the program.
// maxIter <= 0 uses DefaultMaxUnroll. Loops that cannot be unrolled
// (unknown trip count and no bound, or trip count above the limit) are left
// in place; the scheduler will implement them as FSM states instead (the
// classical-HLS baseline path).
func UnrollFull(labels []string, maxIter int) Pass {
	if maxIter <= 0 {
		maxIter = DefaultMaxUnroll
	}
	want := map[string]bool{}
	for _, l := range labels {
		want[l] = true
	}
	name := "unroll-full"
	if labels != nil {
		name = fmt.Sprintf("unroll-full(%v)", labels)
	}
	return PassFunc{PassName: name, Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			// Iterate: unrolling an outer loop may expose (replicate)
			// inner loops that then unroll in the next round.
			for round := 0; round < 64; round++ {
				any := false
				ir.RewriteBlocks(f.Body, func(stmts []ir.Stmt) []ir.Stmt {
					return splice(stmts, func(s ir.Stmt) ([]ir.Stmt, bool) {
						exp, ok := tryUnrollStmt(s, want, labels == nil, maxIter)
						any = any || ok
						return exp, ok
					})
				})
				if !any {
					break
				}
				changed = true
			}
		}
		return changed, nil
	}}
}

func tryUnrollStmt(s ir.Stmt, want map[string]bool, all bool, maxIter int) ([]ir.Stmt, bool) {
	switch x := s.(type) {
	case *ir.ForStmt:
		if !all && !want[x.Label] {
			return nil, false
		}
		return unrollFor(x, maxIter)
	case *ir.WhileStmt:
		if !all && !want[x.Label] {
			return nil, false
		}
		if x.Bound <= 0 || x.Bound > maxIter {
			return nil, false
		}
		return []ir.Stmt{unrollWhile(x)}, true
	}
	return nil, false
}

// unrollFor replicates a counted loop body tripCount times.
func unrollFor(f *ir.ForStmt, maxIter int) ([]ir.Stmt, bool) {
	count, ok := TripCount(f, maxIter)
	if !ok {
		return nil, false
	}
	var out []ir.Stmt
	if f.Init != nil {
		out = append(out, f.Init)
	}
	for it := 0; it < count; it++ {
		body := ir.CloneBlock(f.Body, nil)
		out = append(out, body.Stmts...)
		if f.Post != nil {
			out = append(out, ir.CloneStmt(f.Post, nil))
		}
	}
	return out, true
}

// unrollWhile converts a bounded while into Bound nested guards:
//
//	while (c) B   →   if (c) { B if (c) { B ... } }
//
// which executes B exactly as many times as the while would, provided the
// real trip count never exceeds the bound (the designer's #bound
// assertion).
func unrollWhile(w *ir.WhileStmt) ir.Stmt {
	var inner ir.Stmt
	for i := 0; i < w.Bound; i++ {
		body := ir.CloneBlock(w.Body, nil)
		if inner != nil {
			body.Add(inner)
		}
		inner = ir.If(ir.CloneExpr(w.Cond, nil), body, nil)
	}
	return inner
}

// TripCount statically computes the number of iterations of a counted loop
// by executing the index recurrence: init must assign a constant to an
// index variable that the loop body never writes; cond and post must be
// pure expressions over that variable alone. Returns (count, true) on
// success with count <= maxIter.
func TripCount(f *ir.ForStmt, maxIter int) (int, bool) {
	if f.Init == nil || f.Post == nil {
		return 0, false
	}
	lv, ok := f.Init.LHS.(*ir.VarExpr)
	if !ok {
		return 0, false
	}
	idx := lv.V
	c0, ok := f.Init.RHS.(*ir.ConstExpr)
	if !ok {
		return 0, false
	}
	pv, ok := f.Post.LHS.(*ir.VarExpr)
	if !ok || pv.V != idx {
		return 0, false
	}
	// The body must not write the index variable.
	writesIdx := false
	calls := eachWritten(f.Body.Stmts, func(v *ir.Var) { writesIdx = writesIdx || v == idx })
	if writesIdx || calls && idx.IsGlobal {
		return 0, false
	}
	// Cond and post must depend on idx (and constants) only.
	if !onlyReads(f.Cond, idx) || !onlyReads(f.Post.RHS, idx) {
		return 0, false
	}
	val := idx.Type.Canon(c0.Val)
	for count := 0; count <= maxIter; count++ {
		c, ok := evalWith(f.Cond, idx, val)
		if !ok {
			return 0, false
		}
		if c == 0 {
			return count, true
		}
		nv, ok := evalWith(f.Post.RHS, idx, val)
		if !ok {
			return 0, false
		}
		nv = idx.Type.Canon(nv)
		if nv == val && count > 0 {
			return 0, false // index stuck: not a counted loop
		}
		val = nv
	}
	return 0, false
}

// onlyReads reports whether e reads no variable other than v and contains
// no calls or array accesses.
func onlyReads(e ir.Expr, v *ir.Var) bool {
	ok := true
	ir.WalkExpr(e, func(x ir.Expr) bool {
		switch n := x.(type) {
		case *ir.VarExpr:
			if n.V != v {
				ok = false
			}
		case *ir.IndexExpr, *ir.CallExpr:
			ok = false
		}
		return ok
	})
	return ok
}

// evalWith evaluates a pure expression whose only variable is v, bound to
// val, under full bit-accurate semantics.
func evalWith(e ir.Expr, v *ir.Var, val int64) (int64, bool) {
	switch x := e.(type) {
	case *ir.ConstExpr:
		return x.Val, true
	case *ir.VarExpr:
		if x.V == v {
			return val, true
		}
		return 0, false
	case *ir.BinExpr:
		l, ok := evalWith(x.L, v, val)
		if !ok {
			return 0, false
		}
		r, ok := evalWith(x.R, v, val)
		if !ok {
			return 0, false
		}
		out, err := interp.EvalBinOp(x.Op, l, r, x.Typ,
			interp.UnsignedOperands(x.L.Type(), x.R.Type()))
		if err != nil {
			return 0, false
		}
		return out, true
	case *ir.UnExpr:
		in, ok := evalWith(x.X, v, val)
		if !ok {
			return 0, false
		}
		return interp.EvalUnOp(x.Op, in, x.Typ), true
	case *ir.CastExpr:
		in, ok := evalWith(x.X, v, val)
		if !ok {
			return 0, false
		}
		return x.Typ.Canon(in), true
	case *ir.SelExpr:
		c, ok := evalWith(x.Cond, v, val)
		if !ok {
			return 0, false
		}
		if c != 0 {
			t, ok := evalWith(x.Then, v, val)
			return x.Typ.Canon(t), ok
		}
		t, ok := evalWith(x.Else, v, val)
		return x.Typ.Canon(t), ok
	}
	return 0, false
}

// UnrollBy partially unrolls a loop by the given factor (the paper’s
// incremental mode: "loops are unrolled one iteration at a time, followed
// by code compaction ... until no further improvements"). The loop is kept
// and its body replicated factor times with interleaved guard checks, so
// semantics are exact for any trip count:
//
//	for (init; c; post) B   →   for (init; c; ) { B post if (c) { B post ... } }
func UnrollBy(label string, factor int) Pass {
	return PassFunc{PassName: fmt.Sprintf("unroll-by(%s,%d)", label, factor),
		Fn: func(p *ir.Program) (bool, error) {
			if factor < 2 {
				return false, nil
			}
			changed := false
			for _, f := range p.Funcs {
				ir.RewriteBlocks(f.Body, func(stmts []ir.Stmt) []ir.Stmt {
					for i, s := range stmts {
						fs, ok := s.(*ir.ForStmt)
						if !ok || fs.Label != label {
							continue
						}
						stmts[i] = partialUnroll(fs, factor)
						changed = true
					}
					return stmts
				})
			}
			return changed, nil
		}}
}

func partialUnroll(f *ir.ForStmt, factor int) ir.Stmt {
	mk := func() []ir.Stmt {
		b := ir.CloneBlock(f.Body, nil)
		out := b.Stmts
		if f.Post != nil {
			out = append(out, ir.CloneStmt(f.Post, nil))
		}
		return out
	}
	// Build the guarded replica chain innermost-first: replicas 2..factor
	// are each wrapped in "if (cond)".
	var inner *ir.Block
	for i := 0; i < factor-1; i++ {
		blk := ir.NewBlock(mk()...)
		if inner != nil {
			blk.Add(ir.If(ir.CloneExpr(f.Cond, nil), inner, nil))
		}
		inner = blk
	}
	body := ir.NewBlock(mk()...)
	if inner != nil {
		body.Add(ir.If(ir.CloneExpr(f.Cond, nil), inner, nil))
	}
	return &ir.ForStmt{Init: f.Init, Cond: f.Cond, Post: nil, Body: body, Label: f.Label}
}
