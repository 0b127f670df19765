package ir

import (
	"fmt"
	"strings"
)

// Print renders the program in the C-like surface syntax accepted by the
// parser, so Print/Parse round-trips. Used for golden tests, the paper's
// figure listings, and debug output.
func Print(p *Program) string {
	var b strings.Builder
	pr := &printer{w: &b}
	for _, g := range p.Globals {
		if g.Type.IsArray() {
			fmt.Fprintf(&b, "%s %s[%d];\n", g.Type.Elem, g.Name, g.Type.Len)
		} else {
			fmt.Fprintf(&b, "%s %s;\n", g.Type, g.Name)
		}
	}
	if len(p.Globals) > 0 {
		b.WriteString("\n")
	}
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteString("\n")
		}
		pr.function(f)
	}
	return b.String()
}

// PrintStmt renders a single statement at indent 0.
func PrintStmt(s Stmt) string {
	var b strings.Builder
	(&printer{w: &b}).stmt(s, 0)
	return b.String()
}

// PrintExpr renders an expression.
func PrintExpr(e Expr) string {
	var b strings.Builder
	(&printer{w: &b}).expr(e, 0)
	return b.String()
}

type printer struct {
	w *strings.Builder
}

func (p *printer) function(f *Func) {
	params := make([]string, len(f.Params))
	for i, v := range f.Params {
		params[i] = fmt.Sprintf("%s %s", v.Type, v.Name)
	}
	fmt.Fprintf(p.w, "%s %s(%s) {\n", f.Ret, f.Name, strings.Join(params, ", "))
	// Declare non-parameter locals first, C89 style.
	for _, v := range f.Locals {
		if v.IsParam {
			continue
		}
		if v.Type.IsArray() {
			fmt.Fprintf(p.w, "  %s %s[%d];\n", v.Type.Elem, v.Name, v.Type.Len)
		} else {
			fmt.Fprintf(p.w, "  %s %s;\n", v.Type, v.Name)
		}
	}
	for _, s := range f.Body.Stmts {
		p.stmt(s, 1)
	}
	p.w.WriteString("}\n")
}

func (p *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		p.w.WriteString("  ")
	}
}

func (p *printer) stmt(s Stmt, depth int) {
	switch x := s.(type) {
	case *AssignStmt:
		p.indent(depth)
		p.expr(x.LHS, 0)
		p.w.WriteString(" = ")
		p.expr(x.RHS, 0)
		p.w.WriteString(";\n")
	case *IfStmt:
		p.indent(depth)
		p.w.WriteString("if (")
		p.expr(x.Cond, 0)
		p.w.WriteString(") {\n")
		for _, t := range x.Then.Stmts {
			p.stmt(t, depth+1)
		}
		p.indent(depth)
		if x.Else != nil && len(x.Else.Stmts) > 0 {
			p.w.WriteString("} else {\n")
			for _, t := range x.Else.Stmts {
				p.stmt(t, depth+1)
			}
			p.indent(depth)
		}
		p.w.WriteString("}\n")
	case *ForStmt:
		p.indent(depth)
		p.w.WriteString("for (")
		if x.Init != nil {
			p.expr(x.Init.LHS, 0)
			p.w.WriteString(" = ")
			p.expr(x.Init.RHS, 0)
		}
		p.w.WriteString("; ")
		p.expr(x.Cond, 0)
		p.w.WriteString("; ")
		if x.Post != nil {
			p.expr(x.Post.LHS, 0)
			p.w.WriteString(" = ")
			p.expr(x.Post.RHS, 0)
		}
		p.w.WriteString(") {\n")
		for _, t := range x.Body.Stmts {
			p.stmt(t, depth+1)
		}
		p.indent(depth)
		p.w.WriteString("}\n")
	case *WhileStmt:
		p.indent(depth)
		if x.Bound > 0 {
			fmt.Fprintf(p.w, "#bound %d\n", x.Bound)
			p.indent(depth)
		}
		p.w.WriteString("while (")
		p.expr(x.Cond, 0)
		p.w.WriteString(") {\n")
		for _, t := range x.Body.Stmts {
			p.stmt(t, depth+1)
		}
		p.indent(depth)
		p.w.WriteString("}\n")
	case *ReturnStmt:
		p.indent(depth)
		p.w.WriteString("return")
		if x.Val != nil {
			p.w.WriteString(" ")
			p.expr(x.Val, 0)
		}
		p.w.WriteString(";\n")
	case *ExprStmt:
		p.indent(depth)
		p.expr(x.Call, 0)
		p.w.WriteString(";\n")
	case *Block:
		p.indent(depth)
		p.w.WriteString("{\n")
		for _, t := range x.Stmts {
			p.stmt(t, depth+1)
		}
		p.indent(depth)
		p.w.WriteString("}\n")
	default:
		p.indent(depth)
		fmt.Fprintf(p.w, "/* unknown stmt %T */\n", s)
	}
}

// Operator precedence for parenthesization, mirroring C.
func precOf(e Expr) int {
	switch x := e.(type) {
	case *ConstExpr, *VarExpr, *IndexExpr, *CallExpr:
		return 100
	case *CastExpr, *UnExpr:
		return 90
	case *BinExpr:
		switch x.Op {
		case OpMul, OpDiv, OpRem:
			return 80
		case OpAdd, OpSub:
			return 70
		case OpShl, OpShr:
			return 60
		case OpLt, OpLe, OpGt, OpGe:
			return 50
		case OpEq, OpNe:
			return 45
		case OpAnd:
			return 40
		case OpXor:
			return 35
		case OpOr:
			return 30
		case OpLAnd:
			return 25
		case OpLOr:
			return 20
		}
	case *SelExpr:
		return 10
	}
	return 0
}

func (p *printer) expr(e Expr, parentPrec int) {
	prec := precOf(e)
	paren := prec < parentPrec
	if paren {
		p.w.WriteString("(")
	}
	switch x := e.(type) {
	case *ConstExpr:
		if x.Typ.IsBool() {
			if x.Val != 0 {
				p.w.WriteString("true")
			} else {
				p.w.WriteString("false")
			}
		} else {
			fmt.Fprintf(p.w, "%d", x.Val)
		}
	case *VarExpr:
		p.w.WriteString(x.V.Name)
	case *IndexExpr:
		p.w.WriteString(x.Arr.Name)
		p.w.WriteString("[")
		p.expr(x.Index, 0)
		p.w.WriteString("]")
	case *BinExpr:
		p.expr(x.L, prec)
		fmt.Fprintf(p.w, " %s ", x.Op)
		p.expr(x.R, prec+1)
	case *UnExpr:
		p.w.WriteString(x.Op.String())
		p.expr(x.X, prec)
	case *SelExpr:
		p.expr(x.Cond, prec+1)
		p.w.WriteString(" ? ")
		p.expr(x.Then, prec+1)
		p.w.WriteString(" : ")
		p.expr(x.Else, prec)
	case *CastExpr:
		fmt.Fprintf(p.w, "(%s)", x.Typ)
		p.expr(x.X, 90)
	case *CallExpr:
		p.w.WriteString(x.Name)
		p.w.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				p.w.WriteString(", ")
			}
			p.expr(a, 0)
		}
		p.w.WriteString(")")
	default:
		fmt.Fprintf(p.w, "/*?%T*/", e)
	}
	if paren {
		p.w.WriteString(")")
	}
}
