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
	pure := true
	ir.WalkExpr(e, func(x ir.Expr) bool {
		if _, ok := x.(*ir.CallExpr); ok {
			pure = false
			return false
		}
		return true
	})
	return pure
}

// writtenVars collects every variable written anywhere in the statement
// tree (array stores report the array variable), including loop init/post.
func writtenVars(stmts []ir.Stmt, into map[*ir.Var]bool) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v := ir.StmtWrites(s); v != nil {
				into[v] = true
			}
		case *ir.IfStmt:
			writtenVars(x.Then.Stmts, into)
			if x.Else != nil {
				writtenVars(x.Else.Stmts, into)
			}
		case *ir.ForStmt:
			if x.Init != nil {
				writtenVars([]ir.Stmt{x.Init}, into)
			}
			if x.Post != nil {
				writtenVars([]ir.Stmt{x.Post}, into)
			}
			writtenVars(x.Body.Stmts, into)
		case *ir.WhileStmt:
			writtenVars(x.Body.Stmts, into)
		case *ir.Block:
			writtenVars(x.Stmts, into)
		case *ir.ExprStmt:
			// A call may write any global.
			into[anyGlobalMarker] = true
		case *ir.ReturnStmt:
		}
		// Calls in assignment RHS also clobber globals.
		if a, ok := s.(*ir.AssignStmt); ok {
			if _, isCall := a.RHS.(*ir.CallExpr); isCall {
				into[anyGlobalMarker] = true
			}
		}
	}
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
	w := map[*ir.Var]bool{}
	writtenVars(stmts, w)
	if w[anyGlobalMarker] {
		s.clobberGlobals()
	}
	for v := range w {
		s.kill(v)
	}
}

// anyGlobalMarker is a sentinel: its presence in a written-set means "some
// call may have written any global".
var anyGlobalMarker = &ir.Var{Name: "<any-global>"}
