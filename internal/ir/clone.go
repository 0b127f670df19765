package ir

// CloneExpr deep-copies an expression, substituting variables through subst
// (identity for variables not in the map). Loop unrolling and inlining rely
// on this to replicate bodies with fresh or renamed storage.
func CloneExpr(e Expr, subst map[*Var]*Var) Expr {
	if e == nil {
		return nil
	}
	repl := func(v *Var) *Var {
		if subst != nil {
			if w, ok := subst[v]; ok {
				return w
			}
		}
		return v
	}
	switch x := e.(type) {
	case *ConstExpr:
		c := *x
		return &c
	case *VarExpr:
		return &VarExpr{V: repl(x.V)}
	case *IndexExpr:
		return &IndexExpr{Arr: repl(x.Arr), Index: CloneExpr(x.Index, subst)}
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: CloneExpr(x.L, subst), R: CloneExpr(x.R, subst), Typ: x.Typ}
	case *UnExpr:
		return &UnExpr{Op: x.Op, X: CloneExpr(x.X, subst), Typ: x.Typ}
	case *SelExpr:
		return &SelExpr{Cond: CloneExpr(x.Cond, subst), Then: CloneExpr(x.Then, subst),
			Else: CloneExpr(x.Else, subst), Typ: x.Typ}
	case *CastExpr:
		return &CastExpr{X: CloneExpr(x.X, subst), Typ: x.Typ}
	case *CallExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a, subst)
		}
		return &CallExpr{Name: x.Name, F: x.F, Args: args}
	}
	panic("ir.CloneExpr: unknown expression type")
}

// CloneStmt deep-copies a statement with variable substitution.
func CloneStmt(s Stmt, subst map[*Var]*Var) Stmt {
	if s == nil {
		return nil
	}
	switch x := s.(type) {
	case *AssignStmt:
		return &AssignStmt{LHS: CloneExpr(x.LHS, subst).(LValue), RHS: CloneExpr(x.RHS, subst)}
	case *IfStmt:
		return &IfStmt{Cond: CloneExpr(x.Cond, subst),
			Then: CloneBlock(x.Then, subst), Else: CloneBlock(x.Else, subst)}
	case *ForStmt:
		f := &ForStmt{Cond: CloneExpr(x.Cond, subst), Body: CloneBlock(x.Body, subst), Label: x.Label}
		if x.Init != nil {
			f.Init = CloneStmt(x.Init, subst).(*AssignStmt)
		}
		if x.Post != nil {
			f.Post = CloneStmt(x.Post, subst).(*AssignStmt)
		}
		return f
	case *WhileStmt:
		return &WhileStmt{Cond: CloneExpr(x.Cond, subst), Body: CloneBlock(x.Body, subst),
			Label: x.Label, Bound: x.Bound}
	case *ReturnStmt:
		return &ReturnStmt{Val: CloneExpr(x.Val, subst)}
	case *ExprStmt:
		return &ExprStmt{Call: CloneExpr(x.Call, subst).(*CallExpr)}
	case *Block:
		return CloneBlock(x, subst)
	}
	panic("ir.CloneStmt: unknown statement type")
}

// CloneBlock deep-copies a block with variable substitution.
func CloneBlock(b *Block, subst map[*Var]*Var) *Block {
	if b == nil {
		return nil
	}
	out := &Block{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		out.Stmts[i] = CloneStmt(s, subst)
	}
	return out
}

// CloneProgram deep-copies an entire program. Globals are cloned too, and
// call targets are re-resolved against the cloned function set, so the copy
// shares nothing with the original. Every synthesis run clones its input so
// per-stage snapshots stay intact.
func CloneProgram(p *Program) *Program {
	np := NewProgram(p.Name)
	gsubst := make(map[*Var]*Var, len(p.Globals))
	for _, g := range p.Globals {
		c := *g
		gsubst[g] = &c
		np.Globals = append(np.Globals, &c)
	}
	fmap := make(map[*Func]*Func, len(p.Funcs))
	for _, f := range p.Funcs {
		subst := make(map[*Var]*Var, len(f.Locals))
		for k, v := range gsubst {
			subst[k] = v
		}
		nf := &Func{Name: f.Name, Ret: f.Ret, tempCounter: f.tempCounter}
		for _, v := range f.Locals {
			c := *v
			subst[v] = &c
			nf.Locals = append(nf.Locals, &c)
			if v.IsParam {
				nf.Params = append(nf.Params, &c)
			}
		}
		nf.Body = CloneBlock(f.Body, subst)
		np.Funcs = append(np.Funcs, nf)
		fmap[f] = nf
	}
	// Re-resolve call targets to the cloned functions.
	for _, f := range np.Funcs {
		RewriteAllExprs(f.Body, func(e Expr) Expr {
			if c, ok := e.(*CallExpr); ok && c.F != nil {
				if nf, ok := fmap[c.F]; ok {
					c.F = nf
				}
			}
			return e
		})
	}
	return np
}
