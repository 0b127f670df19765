package transform

import (
	"sparkgo/internal/ir"
)

// ConstProp is flow-sensitive constant propagation with branch folding.
// It is the transformation of paper Figs 3(a) and 14: after full loop
// unrolling, the constant assignment to the loop index variable propagates
// through all replicated iterations, the index variable disappears from the
// code, and conditionals with now-constant conditions fold away (e.g. the
// first "if (1 == NextStartByte)" of the unrolled ILD, which is always
// taken).
//
// Semantics note: locals are defined to be zero-initialized (package interp
// and the RTL both guarantee this), so a local's initial value is the
// constant 0. Globals and parameters start unknown.
func ConstProp() Pass {
	return propagation{
		name: "const-prop",
		init: func(f *ir.Func, s *facts) {
			for _, v := range f.Locals {
				if !v.IsParam && !v.IsGlobal && v.Type.IsScalar() {
					s.set(v, fact{})
				}
			}
		},
		gen: func(lhs *ir.Var, rhs ir.Expr) (fact, bool) {
			c, ok := rhs.(*ir.ConstExpr)
			if !ok {
				return fact{}, false
			}
			return fact{val: lhs.Type.Canon(c.Val)}, true
		},
		fold: true,
	}.pass()
}

// CopyProp is flow-sensitive copy propagation: after "a = b;", reads of a
// are replaced by b until either variable is redefined. Together with DCE
// it removes the copy chains that inlining and speculation leave behind
// (the paper applies it as one of the supporting "standard compiler
// transformations").
//
// Only same-type scalar copies participate (a width-changing assignment
// contains a cast and is left alone), so replacement is always exact.
func CopyProp() Pass {
	return propagation{
		name: "copy-prop",
		init: func(*ir.Func, *facts) {},
		gen: func(lhs *ir.Var, rhs ir.Expr) (fact, bool) {
			src, ok := rhs.(*ir.VarExpr)
			if !ok || src.V == lhs || !src.V.Type.Equal(lhs.Type) {
				return fact{}, false
			}
			return fact{src: src.V}, true
		},
	}.pass()
}

// propagation is a forward, flow-sensitive walk that substitutes what is
// known about each variable into its reads. A pass supplies the facts a
// function starts with, the fact an assignment creates, and whether
// substituted expressions and constant branches fold.
type propagation struct {
	name string
	init func(f *ir.Func, s *facts)
	gen  func(lhs *ir.Var, rhs ir.Expr) (fact, bool)
	fold bool
}

// fact is what is known about a variable: it holds a copy of src or, when
// src is nil, the constant val.
type fact struct {
	src *ir.Var
	val int64
}

// expr returns the expression that replaces a read of v.
func (f fact) expr(v *ir.Var) ir.Expr {
	if f.src != nil {
		return ir.V(f.src)
	}
	return ir.C(f.val, v.Type)
}

// facts maps each variable to what is known about it during one
// function's walk. Branches and loop bodies are scopes of known, so what
// they learn is rolled back on exit. read holds the variables any fact
// has held as its source, so kill looks for readers only where there
// can be some.
type facts struct {
	known varScoped[fact]
	read  varSet
	// joins holds, for the ifs being walked, the facts a branch ended
	// with for each variable it touched.
	joins []joined
}

// joined is what a branch ended with for v: fact f, or nothing if !ok.
type joined struct {
	v  *ir.Var
	f  fact
	ok bool
}

// newFacts returns the empty facts of a walk over a function with n
// numbered variables.
func newFacts(n int) *facts {
	return &facts{known: newVarScoped[fact](n), read: newVarSet(n)}
}

func (s *facts) set(v *ir.Var, f fact) {
	s.known.set(v, f)
	if f.src != nil {
		s.read.add(f.src)
	}
}

// kill drops the facts a write to v invalidates: v's own and every fact
// that reads v.
func (s *facts) kill(v *ir.Var) {
	s.known.del(v)
	if s.read.has(v) {
		s.known.dropIf(func(_ *ir.Var, f fact) bool { return f.src == v })
	}
}

// clobberGlobals drops the facts a call invalidates: those about a global
// and those reading one.
func (s *facts) clobberGlobals() {
	s.known.dropIf(func(k *ir.Var, f fact) bool {
		return k.IsGlobal || f.src != nil && f.src.IsGlobal
	})
}

// ends appends what the open scope ended with for each variable it
// touched.
func (s *facts) ends() {
	for _, c := range s.known.touched() {
		f, ok := s.known.get(c.k)
		s.joins = append(s.joins, joined{c.k, f, ok})
	}
}

// branches walks each branch of x in its own scope, then keeps the facts
// equal on both paths. Only a variable either branch touched can differ,
// since a fact is dropped as soon as it stops holding.
func (pr propagation) branches(x *ir.IfStmt, s *facts) bool {
	base := len(s.joins)
	s.known.push()
	changed := pr.block(x.Then, s)
	s.ends()
	s.known.pop()
	s.known.push()
	if x.Else != nil && pr.block(x.Else, s) {
		changed = true
	}
	// What the then branch touched holds after the if only if the else
	// branch ends with it too.
	thenEnd := len(s.joins)
	for i := base; i < thenEnd; i++ {
		j := &s.joins[i]
		f, ok := s.known.get(j.v)
		j.ok = j.ok && ok && f == j.f
	}
	s.ends()
	s.known.pop()
	// What only the else branch touched holds after the if only if it is
	// what the then branch left, the fact on entry. A variable both
	// touched is settled by the then entries, applied last.
	for _, j := range s.joins[thenEnd:] {
		if f, ok := s.known.get(j.v); !j.ok || !ok || f != j.f {
			s.known.del(j.v)
		}
	}
	for _, j := range s.joins[base:thenEnd] {
		if !j.ok {
			s.known.del(j.v)
		} else if f, ok := s.known.get(j.v); !ok || f != j.f {
			s.known.set(j.v, j.f)
		}
	}
	s.joins = s.joins[:base]
	return changed
}

func (pr propagation) pass() Pass {
	return PassFunc{PassName: pr.name, Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			s := newFacts(f.NumberVars(p.Globals))
			pr.init(f, s)
			if pr.block(f.Body, s) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// substitute rewrites e, replacing reads of variables with known facts
// and, when the pass folds, folding, and returns the new expression.
func (pr propagation) substitute(e ir.Expr, s *facts) (ir.Expr, bool) {
	changed := false
	out := ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
		if v, ok := x.(*ir.VarExpr); ok {
			if f, ok := s.known.get(v.V); ok {
				changed = true
				return f.expr(v.V)
			}
			return x
		}
		if !pr.fold {
			return x
		}
		nx := FoldExpr(x)
		if nx != x {
			changed = true
		}
		return nx
	})
	return out, changed
}

func (pr propagation) substituteArgs(call *ir.CallExpr, s *facts) bool {
	changed := false
	for i, a := range call.Args {
		na, ch := pr.substitute(a, s)
		call.Args[i] = na
		changed = changed || ch
	}
	return changed
}

// block propagates through a statement list, mutating statements in place
// and updating s. It returns whether anything changed. The slice is
// rebuilt only once a branch is spliced.
func (pr propagation) block(b *ir.Block, s *facts) bool {
	changed := false
	b.Stmts = splice(b.Stmts, func(st ir.Stmt) ([]ir.Stmt, bool) {
		ch, folded, taken := pr.stmt(st, s)
		changed = changed || ch
		return taken, folded
	})
	return changed
}

// stmt processes one statement in place and reports whether anything
// changed. An if whose condition folds to a constant reports folded and
// the statements of its taken branch, which replace it.
func (pr propagation) stmt(st ir.Stmt, s *facts) (changed, folded bool, taken []ir.Stmt) {
	switch x := st.(type) {
	case *ir.AssignStmt:
		if call, isCall := x.RHS.(*ir.CallExpr); isCall {
			changed = pr.substituteArgs(call, s)
			s.clobberGlobals()
		} else {
			x.RHS, changed = pr.substitute(x.RHS, s)
		}
		switch lhs := x.LHS.(type) {
		case *ir.VarExpr:
			s.kill(lhs.V)
			if f, ok := pr.gen(lhs.V, x.RHS); ok {
				s.set(lhs.V, f)
			}
		case *ir.IndexExpr:
			var ch bool
			lhs.Index, ch = pr.substitute(lhs.Index, s)
			changed = changed || ch
			s.kill(lhs.Arr)
		}

	case *ir.IfStmt:
		x.Cond, changed = pr.substitute(x.Cond, s)
		if c, ok := x.Cond.(*ir.ConstExpr); ok && pr.fold {
			branch := x.Else
			if c.Val != 0 {
				branch = x.Then
			}
			if branch == nil {
				return true, true, nil
			}
			pr.block(branch, s)
			return true, true, branch.Stmts
		}
		if pr.branches(x, s) {
			changed = true
		}

	case *ir.ForStmt:
		if x.Init != nil {
			changed, _, _ = pr.stmt(x.Init, s)
		}
		// Everything written in the loop is unknown at the condition
		// and afterwards (no iteration needed: we only remove facts).
		body := append([]ir.Stmt{}, x.Body.Stmts...)
		if x.Post != nil {
			body = append(body, x.Post)
		}
		killWritten(s, body)
		var ch bool
		x.Cond, ch = pr.substitute(x.Cond, s)
		changed = changed || ch
		s.known.push()
		if pr.block(x.Body, s) {
			changed = true
		}
		if x.Post != nil {
			x.Post.RHS, ch = pr.substitute(x.Post.RHS, s)
			changed = changed || ch
		}
		s.known.pop()

	case *ir.WhileStmt:
		killWritten(s, x.Body.Stmts)
		x.Cond, changed = pr.substitute(x.Cond, s)
		s.known.push()
		if pr.block(x.Body, s) {
			changed = true
		}
		s.known.pop()

	case *ir.ReturnStmt:
		if x.Val != nil {
			x.Val, changed = pr.substitute(x.Val, s)
		}

	case *ir.ExprStmt:
		changed = pr.substituteArgs(x.Call, s)
		s.clobberGlobals()

	case *ir.Block:
		changed = pr.block(x, s)
	}
	return changed, false, nil
}
