// Package transform implements the coordinated source-level transformations
// of the Spark paper (Gupta et al., DAC 2002, §3 and §6):
//
//   - function inlining (Fig 12)
//   - speculation: hoisting computation out of conditional branches into
//     fresh temporaries, leaving a pure selection tree (Fig 11)
//   - full and partial loop unrolling (Figs 2, 13)
//   - constant propagation, including loop-index elimination after full
//     unrolling (Figs 3, 14), with branch folding
//   - copy propagation, dead-code elimination, and common-subexpression
//     elimination (the supporting "standard compiler transformations")
//   - while→for normalization of data-dependent loops over a monotone
//     index (the paper's Fig 16 "future work" source-level transformation)
//
// All passes preserve program semantics as defined by package interp; the
// test suite checks this with randomized equivalence testing after every
// pass on every workload.
//
// The flow-sensitive passes (DCE, constant and copy propagation, CSE and
// speculation) keep their per-variable facts in slices, not maps. Each
// numbers a function's variables when it starts on it
// (ir.Func.NumberVars: globals first, then the locals) and trusts no
// other ID; temporaries it creates are numbered by ir.Func.AddLocal.
// Sets of variables, such as DCE's live set, are bitsets (varSet), so
// copying one at a branch or a loop's back edge is a word copy. Facts
// that branches and loop bodies must roll back live in a varScoped
// table: a slice by ID that also lists its entries, so dropping the
// facts a write invalidates costs what the table holds. CSE's
// expressions, keyed by structural hash, stay in a map; both kinds of
// table share one undo log (undo).
package transform

import (
	"sparkgo/internal/ir"
)

// Pass is one rewriting step over a whole program.
type Pass interface {
	// Name is the identifier used by synthesis scripts and reports.
	Name() string
	// Run mutates p, reporting whether anything changed.
	Run(p *ir.Program) (changed bool, err error)
}

// PassFunc adapts a function to the Pass interface.
type PassFunc struct {
	PassName string
	Fn       func(p *ir.Program) (bool, error)
}

// Name implements Pass.
func (pf PassFunc) Name() string { return pf.PassName }

// Run implements Pass.
func (pf PassFunc) Run(p *ir.Program) (bool, error) { return pf.Fn(p) }

// IsPure reports whether evaluating e has no side effects and no
// dependence on anything but variable/array state: true for everything
// except calls. Pure expressions may be duplicated, reordered past
// non-conflicting writes, and speculated.
func IsPure(e ir.Expr) bool {
	switch x := e.(type) {
	case *ir.CallExpr:
		return false
	case *ir.IndexExpr:
		return IsPure(x.Index)
	case *ir.BinExpr:
		return IsPure(x.L) && IsPure(x.R)
	case *ir.UnExpr:
		return IsPure(x.X)
	case *ir.CastExpr:
		return IsPure(x.X)
	case *ir.SelExpr:
		return IsPure(x.Cond) && IsPure(x.Then) && IsPure(x.Else)
	}
	return true
}

// splice returns stmts with every statement that expand accepts replaced
// by the statements it returns. It copies stmts only from the first
// accepted statement on, so a block that nothing expands keeps its slice.
func splice(stmts []ir.Stmt, expand func(ir.Stmt) ([]ir.Stmt, bool)) []ir.Stmt {
	var out []ir.Stmt
	for i, s := range stmts {
		exp, ok := expand(s)
		switch {
		case ok:
			if out == nil {
				out = append(make([]ir.Stmt, 0, len(stmts)+len(exp)), stmts[:i]...)
			}
			out = append(out, exp...)
		case out != nil:
			out = append(out, s)
		}
	}
	if out == nil {
		return stmts
	}
	return out
}

// eachWritten calls write for every variable written anywhere in the
// statement tree (an array store writes the array variable), loop init
// and post included, and reports whether any statement calls a
// function, which may write any global.
func eachWritten(stmts []ir.Stmt, write func(*ir.Var)) (calls bool) {
	for _, s := range stmts {
		if writesOf(s, write) {
			calls = true
		}
	}
	return calls
}

// writesOf is eachWritten for one statement.
func writesOf(s ir.Stmt, write func(*ir.Var)) (calls bool) {
	switch x := s.(type) {
	case *ir.AssignStmt:
		if v := ir.StmtWrites(x); v != nil {
			write(v)
		}
		_, calls = x.RHS.(*ir.CallExpr)
	case *ir.IfStmt:
		calls = eachWritten(x.Then.Stmts, write)
		if x.Else != nil && eachWritten(x.Else.Stmts, write) {
			calls = true
		}
	case *ir.ForStmt:
		if x.Init != nil && writesOf(x.Init, write) {
			calls = true
		}
		if x.Post != nil && writesOf(x.Post, write) {
			calls = true
		}
		if eachWritten(x.Body.Stmts, write) {
			calls = true
		}
	case *ir.WhileStmt:
		calls = eachWritten(x.Body.Stmts, write)
	case *ir.Block:
		calls = eachWritten(x.Stmts, write)
	case *ir.ExprStmt:
		calls = true
	}
	return calls
}

// factSet is what a forward pass knows about the program state at a
// point, which writes invalidate.
type factSet interface {
	// kill drops the facts a write to v invalidates.
	kill(v *ir.Var)
	// clobberGlobals drops the facts a call invalidates.
	clobberGlobals()
}

// killWritten drops the facts invalidated by everything the statements may
// write, so the rest hold after them on any path and on every iteration
// of a loop over them.
func killWritten(s factSet, stmts []ir.Stmt) {
	if eachWritten(stmts, s.kill) {
		s.clobberGlobals()
	}
}
