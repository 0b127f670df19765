package transform

import (
	"fmt"

	"sparkgo/internal/ir"
)

// Inline replaces calls with the callee's body (paper Fig 12). Callees must
// be non-recursive (ir.Validate guarantees this) and must use `return` only
// in tail position — the structured-control subset every listing in the
// paper satisfies.
//
// Inline(nil) inlines every call in every function, bottom-up, so after the
// pass the program is call-free (callees are kept; DCE of unreachable
// functions is the synthesizer's decision via DropUncalledFuncs).
// Inline([]string{"f","g"}) restricts inlining to call sites inside the
// named functions.
func Inline(within []string) Pass {
	name := "inline"
	if within != nil {
		name = fmt.Sprintf("inline(%v)", within)
	}
	return PassFunc{PassName: name, Fn: func(p *ir.Program) (bool, error) {
		allowed := map[string]bool{}
		for _, n := range within {
			allowed[n] = true
		}
		changed := false
		for _, f := range p.Funcs {
			if within != nil && !allowed[f.Name] {
				continue
			}
			ch, err := inlineCallsIn(p, f)
			if err != nil {
				return changed, err
			}
			changed = changed || ch
		}
		return changed, nil
	}}
}

// inlineCallsIn repeatedly inlines statement-level calls in f until none
// remain (callee bodies may themselves contain calls).
func inlineCallsIn(p *ir.Program, f *ir.Func) (bool, error) {
	changed := false
	for round := 0; ; round++ {
		if round > 1000 {
			return changed, fmt.Errorf("inline: runaway expansion in %s", f.Name)
		}
		any := false
		var err error
		ir.RewriteBlocks(f.Body, func(stmts []ir.Stmt) []ir.Stmt {
			if err != nil {
				return stmts
			}
			out := splice(stmts, func(s ir.Stmt) ([]ir.Stmt, bool) {
				call, dst := stmtCall(s)
				if call == nil || err != nil {
					return nil, false
				}
				exp, e := expandCall(f, call, dst)
				if e != nil {
					err = e
					return nil, false
				}
				any = true
				return exp, true
			})
			if err != nil {
				return stmts
			}
			return out
		})
		if err != nil {
			return changed, err
		}
		if !any {
			return changed, nil
		}
		changed = true
	}
}

// stmtCall extracts the call and optional destination from a statement, if
// it is a call statement.
func stmtCall(s ir.Stmt) (*ir.CallExpr, ir.LValue) {
	switch x := s.(type) {
	case *ir.AssignStmt:
		if c, ok := x.RHS.(*ir.CallExpr); ok {
			return c, x.LHS
		}
	case *ir.ExprStmt:
		return x.Call, nil
	}
	return nil, nil
}

// expandCall produces the statement sequence replacing "dst = call(...)":
// parameter copies, the renamed callee body, and the result copy.
func expandCall(caller *ir.Func, call *ir.CallExpr, dst ir.LValue) ([]ir.Stmt, error) {
	callee := call.F
	if callee == nil {
		return nil, fmt.Errorf("inline: unresolved call %s", call.Name)
	}
	body, retVal, err := tailReturnBody(callee)
	if err != nil {
		return nil, err
	}
	// Fresh copies of every callee local in the caller.
	subst := map[*ir.Var]*ir.Var{}
	for _, v := range callee.Locals {
		nv := caller.NewTemp(callee.Name+"_"+v.Name, v.Type)
		subst[v] = nv
	}
	var out []ir.Stmt
	for i, prm := range callee.Params {
		out = append(out, ir.Assign(ir.V(subst[prm]), call.Args[i]))
	}
	cloned := ir.CloneBlock(body, subst)
	out = append(out, cloned.Stmts...)
	if dst != nil {
		if retVal == nil {
			return nil, fmt.Errorf("inline: %s used as value but has no return", callee.Name)
		}
		out = append(out, ir.Assign(dst, ir.CloneExpr(retVal, subst)))
	}
	return out, nil
}

// tailReturnBody verifies that callee returns only in tail position and
// yields its body without the trailing return, plus the returned
// expression (nil for void).
func tailReturnBody(callee *ir.Func) (*ir.Block, ir.Expr, error) {
	// No return statement anywhere except possibly the last statement.
	var bad error
	for i, s := range callee.Body.Stmts {
		isLast := i == len(callee.Body.Stmts)-1
		ir.WalkStmts(ir.NewBlock(s), func(st ir.Stmt) bool {
			if _, ok := st.(*ir.ReturnStmt); ok {
				if !(isLast && st == s) {
					bad = fmt.Errorf("inline: %s has a non-tail return", callee.Name)
				}
			}
			return true
		})
	}
	if bad != nil {
		return nil, nil, bad
	}
	n := len(callee.Body.Stmts)
	if n > 0 {
		if ret, ok := callee.Body.Stmts[n-1].(*ir.ReturnStmt); ok {
			return ir.NewBlock(callee.Body.Stmts[:n-1]...), ret.Val, nil
		}
	}
	if !callee.Ret.IsVoid() {
		return nil, nil, fmt.Errorf("inline: %s does not end with a return", callee.Name)
	}
	return callee.Body, nil, nil
}

// DropUncalledFuncs removes every function that is not (transitively)
// called from the top-level function. After full inlining this leaves only
// "main", matching the paper's flow where the whole block becomes one
// behavioral body before scheduling.
func DropUncalledFuncs() Pass {
	return PassFunc{PassName: "drop-uncalled", Fn: func(p *ir.Program) (bool, error) {
		root := p.Main()
		if root == nil || len(p.Funcs) == 1 {
			return false, nil
		}
		reach := map[*ir.Func]bool{root: true}
		var visit func(f *ir.Func)
		visit = func(f *ir.Func) {
			ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
				ir.WalkStmtExprs(s, func(e ir.Expr) {
					ir.WalkExpr(e, func(x ir.Expr) bool {
						if c, ok := x.(*ir.CallExpr); ok && c.F != nil && !reach[c.F] {
							reach[c.F] = true
							visit(c.F)
						}
						return true
					})
				})
				return true
			})
		}
		visit(root)
		var kept []*ir.Func
		for _, f := range p.Funcs {
			if reach[f] {
				kept = append(kept, f)
			}
		}
		changed := len(kept) != len(p.Funcs)
		p.Funcs = kept
		return changed, nil
	}}
}
