package ir

// WalkExpr calls fn for e and each sub-expression, pre-order. If fn returns
// false the children of the current expression are skipped.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *ConstExpr, *VarExpr:
	case *IndexExpr:
		WalkExpr(x.Index, fn)
	case *BinExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnExpr:
		WalkExpr(x.X, fn)
	case *SelExpr:
		WalkExpr(x.Cond, fn)
		WalkExpr(x.Then, fn)
		WalkExpr(x.Else, fn)
	case *CastExpr:
		WalkExpr(x.X, fn)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// WalkStmts calls fn for every statement in the block tree, pre-order,
// descending into if branches and loop bodies. If fn returns false the
// children of the current statement are skipped.
func WalkStmts(b *Block, fn func(Stmt) bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		walkStmt(s, fn)
	}
}

func walkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch x := s.(type) {
	case *IfStmt:
		WalkStmts(x.Then, fn)
		WalkStmts(x.Else, fn)
	case *ForStmt:
		if x.Init != nil {
			walkStmt(x.Init, fn)
		}
		WalkStmts(x.Body, fn)
		if x.Post != nil {
			walkStmt(x.Post, fn)
		}
	case *WhileStmt:
		WalkStmts(x.Body, fn)
	case *Block:
		WalkStmts(x, fn)
	}
}

// WalkStmtExprs calls fn on every expression appearing in the statement
// (not descending into sub-expressions; use WalkExpr inside fn for that).
func WalkStmtExprs(s Stmt, fn func(Expr)) {
	switch x := s.(type) {
	case *AssignStmt:
		fn(x.LHS)
		fn(x.RHS)
	case *IfStmt:
		fn(x.Cond)
	case *ForStmt:
		if x.Init != nil {
			fn(x.Init.LHS)
			fn(x.Init.RHS)
		}
		fn(x.Cond)
		if x.Post != nil {
			fn(x.Post.LHS)
			fn(x.Post.RHS)
		}
	case *WhileStmt:
		fn(x.Cond)
	case *ReturnStmt:
		if x.Val != nil {
			fn(x.Val)
		}
	case *ExprStmt:
		fn(x.Call)
	}
}

// RewriteExpr rebuilds e bottom-up, replacing each node with fn(node).
// fn receives a node whose children have already been rewritten and returns
// the node to use in its place (possibly the argument unchanged).
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ConstExpr, *VarExpr:
		// leaves
	case *IndexExpr:
		x.Index = RewriteExpr(x.Index, fn)
	case *BinExpr:
		x.L = RewriteExpr(x.L, fn)
		x.R = RewriteExpr(x.R, fn)
	case *UnExpr:
		x.X = RewriteExpr(x.X, fn)
	case *SelExpr:
		x.Cond = RewriteExpr(x.Cond, fn)
		x.Then = RewriteExpr(x.Then, fn)
		x.Else = RewriteExpr(x.Else, fn)
	case *CastExpr:
		x.X = RewriteExpr(x.X, fn)
	case *CallExpr:
		for i, a := range x.Args {
			x.Args[i] = RewriteExpr(a, fn)
		}
	}
	return fn(e)
}

// RewriteStmtExprs applies RewriteExpr with fn to every expression slot of
// the statement (in place). The LHS of assignments is rewritten too, but fn
// must return an LValue for LValue slots (returning the input unchanged is
// always safe).
func RewriteStmtExprs(s Stmt, fn func(Expr) Expr) {
	switch x := s.(type) {
	case *AssignStmt:
		x.LHS = RewriteExpr(x.LHS, fn).(LValue)
		x.RHS = RewriteExpr(x.RHS, fn)
	case *IfStmt:
		x.Cond = RewriteExpr(x.Cond, fn)
	case *ForStmt:
		if x.Init != nil {
			RewriteStmtExprs(x.Init, fn)
		}
		x.Cond = RewriteExpr(x.Cond, fn)
		if x.Post != nil {
			RewriteStmtExprs(x.Post, fn)
		}
	case *WhileStmt:
		x.Cond = RewriteExpr(x.Cond, fn)
	case *ReturnStmt:
		if x.Val != nil {
			x.Val = RewriteExpr(x.Val, fn)
		}
	case *ExprStmt:
		x.Call = RewriteExpr(x.Call, fn).(*CallExpr)
	}
}

// RewriteAllExprs applies RewriteStmtExprs to every statement in the block
// tree, including nested blocks.
func RewriteAllExprs(b *Block, fn func(Expr) Expr) {
	WalkStmts(b, func(s Stmt) bool {
		RewriteStmtExprs(s, fn)
		return true
	})
}

// RewriteBlocks rebuilds every statement list in the tree: fn receives each
// block's statement slice and returns the replacement slice. fn is applied
// bottom-up (innermost blocks first).
func RewriteBlocks(b *Block, fn func([]Stmt) []Stmt) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *IfStmt:
			RewriteBlocks(x.Then, fn)
			RewriteBlocks(x.Else, fn)
		case *ForStmt:
			RewriteBlocks(x.Body, fn)
		case *WhileStmt:
			RewriteBlocks(x.Body, fn)
		case *Block:
			RewriteBlocks(x, fn)
		}
	}
	b.Stmts = fn(b.Stmts)
}

// VarsRead collects every variable read by expression e (array reads count
// as reads of the array variable).
func VarsRead(e Expr, into map[*Var]bool) {
	WalkExpr(e, func(x Expr) bool {
		switch v := x.(type) {
		case *VarExpr:
			into[v.V] = true
		case *IndexExpr:
			into[v.Arr] = true
		}
		return true
	})
}

// StmtWrites returns the variable written by statement s (nil if none).
// Array-element stores report the array variable.
func StmtWrites(s Stmt) *Var {
	if a, ok := s.(*AssignStmt); ok {
		switch lhs := a.LHS.(type) {
		case *VarExpr:
			return lhs.V
		case *IndexExpr:
			return lhs.Arr
		}
	}
	return nil
}
