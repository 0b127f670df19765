package ir

import (
	"fmt"
)

// Validate checks structural invariants of a program and returns the first
// violation found, or nil. Passes call this in tests after every
// transformation; a program that validates can be interpreted, lowered, and
// synthesized without panics.
//
// Checked invariants:
//   - every variable referenced is registered (a global or a local of the
//     enclosing function)
//   - variable names are unique within their scope, and a function's
//     name index, once built, agrees with its locals
//   - assignment RHS type widths match the LHS (after the implicit cast
//     discipline: Assign always inserts casts, so a mismatch means a pass
//     constructed a statement by hand incorrectly)
//   - calls appear only at statement level, have resolved targets with
//     matching arity, and are not recursive
//   - array variables are only used via indexing; scalars never indexed
func Validate(p *Program) error {
	globals := map[*Var]bool{}
	names := map[string]bool{}
	for _, g := range p.Globals {
		if !g.IsGlobal {
			return fmt.Errorf("global %s not marked IsGlobal", g.Name)
		}
		if names[g.Name] {
			return fmt.Errorf("duplicate global name %s", g.Name)
		}
		names[g.Name] = true
		globals[g] = true
	}
	fnames := map[string]bool{}
	for _, f := range p.Funcs {
		if fnames[f.Name] {
			return fmt.Errorf("duplicate function name %s", f.Name)
		}
		fnames[f.Name] = true
		if err := validateFunc(p, f, globals); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	if err := checkNoRecursion(p); err != nil {
		return err
	}
	return nil
}

func validateFunc(p *Program, f *Func, globals map[*Var]bool) error {
	locals := map[*Var]bool{}
	names := map[string]bool{}
	for _, v := range f.Locals {
		if names[v.Name] {
			return fmt.Errorf("duplicate local name %s", v.Name)
		}
		names[v.Name] = true
		locals[v] = true
	}
	if f.names != nil && f.named == len(f.Locals) {
		if len(f.names) != len(names) {
			return fmt.Errorf("name index holds %d names, locals %d", len(f.names), len(names))
		}
		for _, v := range f.Locals {
			if f.names[v.Name] != v {
				return fmt.Errorf("name index maps %s to another variable", v.Name)
			}
		}
	}
	for _, prm := range f.Params {
		if !locals[prm] {
			return fmt.Errorf("param %s not in locals list", prm.Name)
		}
	}
	known := func(v *Var) bool { return locals[v] || globals[v] }

	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	checkExpr := func(e Expr, stmtLevelCall bool) {
		WalkExpr(e, func(x Expr) bool {
			switch n := x.(type) {
			case *VarExpr:
				if !known(n.V) {
					fail("unregistered variable %s", n.V.Name)
				}
				if n.V.Type.IsArray() {
					fail("array %s used as scalar", n.V.Name)
				}
			case *IndexExpr:
				if !known(n.Arr) {
					fail("unregistered array %s", n.Arr.Name)
				}
				if !n.Arr.Type.IsArray() {
					fail("scalar %s indexed", n.Arr.Name)
				}
				if !n.Index.Type().IsInt() && !n.Index.Type().IsBool() {
					fail("non-integer index into %s", n.Arr.Name)
				}
			case *CallExpr:
				if x != e || !stmtLevelCall {
					fail("call to %s not at statement level", n.Name)
				}
				if n.F == nil {
					fail("unresolved call to %s", n.Name)
				} else if len(n.Args) != len(n.F.Params) {
					fail("call to %s: %d args, want %d", n.Name, len(n.Args), len(n.F.Params))
				}
			case *BinExpr:
				if n.Typ == nil {
					fail("binary %s missing type", n.Op)
				}
			}
			return true
		})
	}

	WalkStmts(f.Body, func(s Stmt) bool {
		switch x := s.(type) {
		case *AssignStmt:
			checkExpr(x.LHS, false)
			checkExpr(x.RHS, true)
			if _, isCall := x.RHS.(*CallExpr); !isCall {
				lt, rt := x.LHS.Type(), x.RHS.Type()
				if lt.IsScalar() && rt.IsScalar() && lt.Width() != rt.Width() && !lt.IsBool() && !rt.IsBool() {
					fail("assignment width mismatch: %s = %s (%s = %s)",
						PrintExpr(x.LHS), PrintExpr(x.RHS), lt, rt)
				}
			}
		case *IfStmt:
			checkExpr(x.Cond, false)
		case *ForStmt:
			checkExpr(x.Cond, false)
		case *WhileStmt:
			checkExpr(x.Cond, false)
		case *ReturnStmt:
			if x.Val != nil {
				checkExpr(x.Val, false)
				if f.Ret.IsVoid() {
					fail("value return from void function")
				}
			}
		case *ExprStmt:
			checkExpr(x.Call, true)
		}
		return true
	})
	return err
}

// checkNoRecursion verifies the static call graph is acyclic (the paper's
// domain: hardware blocks cannot recurse; the inliner requires this).
func checkNoRecursion(p *Program) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*Func]int{}
	var visit func(f *Func) error
	visit = func(f *Func) error {
		color[f] = gray
		var err error
		WalkStmts(f.Body, func(s Stmt) bool {
			WalkStmtExprs(s, func(e Expr) {
				WalkExpr(e, func(x Expr) bool {
					if c, ok := x.(*CallExpr); ok && c.F != nil && err == nil {
						switch color[c.F] {
						case gray:
							err = fmt.Errorf("recursive call cycle through %s", c.F.Name)
						case white:
							err = visit(c.F)
						}
					}
					return true
				})
			})
			return err == nil
		})
		color[f] = black
		return err
	}
	for _, f := range p.Funcs {
		if color[f] == white {
			if err := visit(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Counts is a function's size in the metrics stage reports use.
type Counts struct {
	Stmts int // statements at all nesting levels, loop init/post included
	Ops   int // operator nodes (binary, unary, select, index): the paper's "operations"
	Ifs   int // conditional statements
	Loops int // for and while statements
	Calls int // call expressions
}

// Shape counts f's statements, operators, conditionals, loops and calls
// in one walk.
func Shape(f *Func) Counts {
	var c Counts
	WalkStmts(f.Body, func(s Stmt) bool {
		c.Stmts++
		switch s.(type) {
		case *IfStmt:
			c.Ifs++
		case *ForStmt, *WhileStmt:
			c.Loops++
		}
		WalkStmtExprs(s, func(e Expr) {
			WalkExpr(e, func(x Expr) bool {
				switch x.(type) {
				case *BinExpr, *UnExpr, *SelExpr, *IndexExpr:
					c.Ops++
				case *CallExpr:
					c.Calls++
				}
				return true
			})
		})
		return true
	})
	return c
}
