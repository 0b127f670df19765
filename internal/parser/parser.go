package parser

import (
	"fmt"
	"strconv"
	"strings"

	"sparkgo/internal/ir"
)

// Parse parses a behavioral description into an IR program. name becomes
// the program name (used for the RTL entity name).
//
// The accepted language is the C subset of the paper's listings:
//
//	uint8 B[19];                      // globals: the block's ports/state
//	uint4 CalculateLength(uint8 i) {  // functions
//	  uint4 lc1;                      // declarations (with optional init)
//	  lc1 = 1 + ((B[i] >> 6) & 1);    // assignments, full C expressions
//	  if (...) { ... } else { ... }   // conditionals
//	  for (i = 0; i < 4; i = i + 1)   // counted loops
//	  #bound 16
//	  while (...) { ... }             // bounded data-dependent loops
//	  return lc1;
//	}
//
// plus compound assignment (+=, -=, ...), ++/--, ternary ?:, hex/binary
// literals, and explicit-width types int1..int64 / uint1..uint64 with the
// aliases int=int32, uint=uint32, byte=uint8, and labels ("L1: for ...").
func Parse(name, src string) (*ir.Program, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: ir.NewProgram(name)}
	if err := p.collectSignatures(); err != nil {
		return nil, err
	}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if err := ir.Validate(p.prog); err != nil {
		return nil, fmt.Errorf("parse: post-validate: %w", err)
	}
	return p.prog, nil
}

// MustParse is Parse that panics on error (tests and generators).
func MustParse(name, src string) *ir.Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []Token
	pos  int
	prog *ir.Program

	fn     *ir.Func // function being parsed
	scopes []map[string]*ir.Var
	labels int
}

func (p *parser) errf(t Token, format string, args ...any) error {
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) at(off int) Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+off]
}
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	t := p.peek()
	if (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) (Token, error) {
	t := p.peek()
	if (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text {
		p.pos++
		return t, nil
	}
	return t, p.errf(t, "expected %q, found %s", text, t)
}

// typeFromName resolves a type name, or nil if the identifier is not a type.
func typeFromName(s string) *ir.Type {
	switch s {
	case "void":
		return ir.Void
	case "bool":
		return ir.Bool
	case "int":
		return ir.I32
	case "uint":
		return ir.U32
	case "byte", "char":
		return ir.U8
	}
	parseWidth := func(prefix string, signed bool) *ir.Type {
		if !strings.HasPrefix(s, prefix) {
			return nil
		}
		n, err := strconv.Atoi(s[len(prefix):])
		if err != nil || n < 1 || n > 64 {
			return nil
		}
		if signed {
			return ir.Int(n)
		}
		return ir.UInt(n)
	}
	if t := parseWidth("uint", false); t != nil {
		return t
	}
	if t := parseWidth("int", true); t != nil {
		return t
	}
	return nil
}

// peekType reports whether the token at offset off starts a type name.
func (p *parser) peekType(off int) *ir.Type {
	t := p.at(off)
	if t.Kind != TokIdent {
		return nil
	}
	return typeFromName(t.Text)
}

// --- Phase 1: collect function signatures so calls may forward-reference ---

func (p *parser) collectSignatures() error {
	save := p.pos
	defer func() { p.pos = save }()
	for p.peek().Kind != TokEOF {
		typ := p.peekType(0)
		if typ == nil {
			return p.errf(p.peek(), "expected type at top level, found %s", p.peek())
		}
		p.next()
		nameTok := p.next()
		if nameTok.Kind != TokIdent {
			return p.errf(nameTok, "expected name after type, found %s", nameTok)
		}
		if p.peek().Text == "(" && p.peek().Kind == TokPunct {
			// Function: parse parameter list, then skip body.
			p.next()
			f := ir.NewFunc(nameTok.Text, typ)
			for !p.accept(")") {
				pt := p.peekType(0)
				if pt == nil {
					return p.errf(p.peek(), "expected parameter type, found %s", p.peek())
				}
				p.next()
				pn := p.next()
				if pn.Kind != TokIdent {
					return p.errf(pn, "expected parameter name, found %s", pn)
				}
				prm := &ir.Var{Name: pn.Text, Type: pt, IsParam: true}
				f.Params = append(f.Params, prm)
				f.AddLocal(prm)
				if !p.accept(",") && p.peek().Text != ")" {
					return p.errf(p.peek(), "expected ',' or ')' in parameter list")
				}
			}
			if p.prog.Func(f.Name) != nil {
				return p.errf(nameTok, "function %s redefined", f.Name)
			}
			p.prog.AddFunc(f)
			if _, err := p.expect("{"); err != nil {
				return err
			}
			depth := 1
			for depth > 0 {
				t := p.next()
				if t.Kind == TokEOF {
					return p.errf(t, "unbalanced braces in function %s", f.Name)
				}
				if t.Kind == TokPunct {
					if t.Text == "{" {
						depth++
					} else if t.Text == "}" {
						depth--
					}
				}
			}
		} else {
			// Global declaration: skip to ';'.
			for {
				t := p.next()
				if t.Kind == TokEOF {
					return p.errf(t, "missing ';' after global %s", nameTok.Text)
				}
				if t.Kind == TokPunct && t.Text == ";" {
					break
				}
			}
		}
	}
	return nil
}

// --- Phase 2: full parse ---

func (p *parser) parseProgram() error {
	for p.peek().Kind != TokEOF {
		typ := p.peekType(0)
		if typ == nil {
			return p.errf(p.peek(), "expected type at top level, found %s", p.peek())
		}
		if p.at(2).Kind == TokPunct && p.at(2).Text == "(" {
			if err := p.parseFunc(); err != nil {
				return err
			}
		} else {
			if err := p.parseGlobal(typ); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *parser) parseGlobal(typ *ir.Type) error {
	p.next() // type
	nameTok := p.next()
	if nameTok.Kind != TokIdent {
		return p.errf(nameTok, "expected global name, found %s", nameTok)
	}
	if p.prog.Global(nameTok.Text) != nil {
		return p.errf(nameTok, "global %s redefined", nameTok.Text)
	}
	if p.accept("[") {
		szTok := p.next()
		if szTok.Kind != TokNumber {
			return p.errf(szTok, "expected array size, found %s", szTok)
		}
		if szTok.Val < 1 || szTok.Val > 1<<20 {
			return p.errf(szTok, "array size %d out of range", szTok.Val)
		}
		if _, err := p.expect("]"); err != nil {
			return err
		}
		typ = ir.Array(typ, int(szTok.Val))
	}
	if typ.IsVoid() {
		return p.errf(nameTok, "global %s cannot be void", nameTok.Text)
	}
	p.prog.NewGlobal(nameTok.Text, typ)
	_, err := p.expect(";")
	return err
}

func (p *parser) parseFunc() error {
	p.next() // return type (already recorded in phase 1)
	nameTok := p.next()
	f := p.prog.Func(nameTok.Text)
	if f == nil {
		return p.errf(nameTok, "internal: function %s missing prototype", nameTok.Text)
	}
	// Skip the parameter list (recorded in phase 1).
	if _, err := p.expect("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		if t.Kind == TokEOF {
			return p.errf(t, "unbalanced parens")
		}
		if t.Kind == TokPunct {
			if t.Text == "(" {
				depth++
			} else if t.Text == ")" {
				depth--
			}
		}
	}
	p.fn = f
	p.scopes = []map[string]*ir.Var{{}}
	for _, prm := range f.Params {
		p.scopes[0][prm.Name] = prm
	}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	body, err := p.parseBlockBody()
	if err != nil {
		return err
	}
	f.Body = body
	p.fn = nil
	p.scopes = nil
	return nil
}

// --- scopes ---

func (p *parser) pushScope() { p.scopes = append(p.scopes, map[string]*ir.Var{}) }
func (p *parser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *parser) lookupVar(name string) *ir.Var {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name]; ok {
			return v
		}
	}
	return p.prog.Global(name)
}

// declareVar introduces a variable in the innermost scope, renaming it if
// the name is already taken elsewhere in the function (all locals live in
// one flat per-function namespace after parsing).
func (p *parser) declareVar(tok Token, name string, typ *ir.Type) (*ir.Var, error) {
	if _, ok := p.scopes[len(p.scopes)-1][name]; ok {
		return nil, p.errf(tok, "%s redeclared in this scope", name)
	}
	unique := name
	for i := 2; p.fn.Lookup(unique) != nil; i++ {
		unique = fmt.Sprintf("%s__%d", name, i)
	}
	v := p.fn.NewLocal(unique, typ)
	p.scopes[len(p.scopes)-1][name] = v
	return v, nil
}

// --- statements ---

func (p *parser) parseBlockBody() (*ir.Block, error) {
	b := &ir.Block{}
	p.pushScope()
	defer p.popScope()
	for {
		t := p.peek()
		if t.Kind == TokPunct && t.Text == "}" {
			p.next()
			return b, nil
		}
		if t.Kind == TokEOF {
			return nil, p.errf(t, "missing '}'")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
}

func (p *parser) parseStmt() (ir.Stmt, error) {
	t := p.peek()

	// #bound N directive: applies to the following while statement.
	if t.Kind == TokDirective {
		if t.Text != "bound" {
			return nil, p.errf(t, "unknown directive #%s", t.Text)
		}
		p.next()
		nTok := p.next()
		if nTok.Kind != TokNumber || nTok.Val < 1 {
			return nil, p.errf(nTok, "#bound requires a positive count")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		w, ok := s.(*ir.WhileStmt)
		if !ok {
			return nil, p.errf(t, "#bound must precede a while loop")
		}
		w.Bound = int(nTok.Val)
		return w, nil
	}

	// Label: "ident : (for|while)".
	if t.Kind == TokIdent && p.at(1).Kind == TokPunct && p.at(1).Text == ":" &&
		p.at(2).Kind == TokKeyword && (p.at(2).Text == "for" || p.at(2).Text == "while") {
		label := p.next().Text
		p.next() // ':'
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		switch l := s.(type) {
		case *ir.ForStmt:
			l.Label = label
		case *ir.WhileStmt:
			l.Label = label
		}
		return s, nil
	}

	switch {
	case t.Kind == TokKeyword && t.Text == "if":
		return p.parseIf()
	case t.Kind == TokKeyword && t.Text == "for":
		return p.parseFor()
	case t.Kind == TokKeyword && t.Text == "while":
		return p.parseWhile()
	case t.Kind == TokKeyword && t.Text == "return":
		return p.parseReturn()
	case t.Kind == TokPunct && t.Text == "{":
		p.next()
		return p.parseBlockBody()
	case t.Kind == TokPunct && t.Text == ";":
		p.next()
		return nil, nil
	}

	// Declaration?
	if typ := p.peekType(0); typ != nil && p.at(1).Kind == TokIdent {
		return p.parseDecl(typ)
	}

	// Assignment or call statement.
	return p.parseSimpleStmt()
}

func (p *parser) parseDecl(typ *ir.Type) (ir.Stmt, error) {
	p.next() // type
	nameTok := p.next()
	if typ.IsVoid() {
		return nil, p.errf(nameTok, "variable %s cannot be void", nameTok.Text)
	}
	declType := typ
	if p.peek().Text == "[" && p.peek().Kind == TokPunct {
		p.next()
		szTok := p.next()
		if szTok.Kind != TokNumber || szTok.Val < 1 {
			return nil, p.errf(szTok, "expected array size")
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		declType = ir.Array(typ, int(szTok.Val))
	}
	v, err := p.declareVar(nameTok, nameTok.Text, declType)
	if err != nil {
		return nil, err
	}
	var init ir.Stmt
	if p.accept("=") {
		if declType.IsArray() {
			return nil, p.errf(nameTok, "array initializers are not supported")
		}
		rhs, err := p.parseAssignRHS()
		if err != nil {
			return nil, err
		}
		init = p.mkAssign(ir.V(v), rhs)
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return init, nil
}

// mkAssign builds an assignment, keeping call RHS uncast (the call result
// type must equal the LHS type; enforced here).
func (p *parser) mkAssign(lhs ir.LValue, rhs ir.Expr) ir.Stmt {
	if c, ok := rhs.(*ir.CallExpr); ok {
		return ir.AssignRaw(lhs, c)
	}
	return ir.Assign(lhs, rhs)
}

// parseAssignRHS parses an expression that may be a bare call (the only
// position where calls are allowed).
func (p *parser) parseAssignRHS() (ir.Expr, error) {
	return p.parseExpr()
}

func (p *parser) parseIf() (ir.Stmt, error) {
	p.next() // if
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	thenBlk, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	var elseBlk *ir.Block
	if p.accept("else") {
		elseBlk, err = p.parseStmtAsBlock()
		if err != nil {
			return nil, err
		}
	}
	return ir.If(p.truthy(cond), thenBlk, elseBlk), nil
}

func (p *parser) parseStmtAsBlock() (*ir.Block, error) {
	if p.accept("{") {
		return p.parseBlockBody()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return &ir.Block{}, nil
	}
	if b, ok := s.(*ir.Block); ok {
		return b, nil
	}
	return ir.NewBlock(s), nil
}

func (p *parser) parseFor() (ir.Stmt, error) {
	p.next() // for
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	var init, post *ir.AssignStmt
	if !p.accept(";") {
		// Optional declaration in the init clause.
		var s ir.Stmt
		var err error
		if typ := p.peekType(0); typ != nil && p.at(1).Kind == TokIdent {
			s, err = p.parseDecl(typ) // consumes ';'
		} else {
			s, err = p.parseAssignOnly()
			if err == nil {
				_, err = p.expect(";")
			}
		}
		if err != nil {
			return nil, err
		}
		a, ok := s.(*ir.AssignStmt)
		if !ok && s != nil {
			return nil, p.errf(p.peek(), "for-init must be an assignment")
		}
		init = a
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if p.peek().Text != ")" {
		s, err := p.parseAssignOnly()
		if err != nil {
			return nil, err
		}
		a, ok := s.(*ir.AssignStmt)
		if !ok {
			return nil, p.errf(p.peek(), "for-post must be an assignment")
		}
		post = a
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	p.labels++
	return &ir.ForStmt{Init: init, Cond: p.truthy(cond), Post: post, Body: body,
		Label: fmt.Sprintf("%s.%d", p.fn.Name, p.labels)}, nil
}

func (p *parser) parseWhile() (ir.Stmt, error) {
	p.next() // while
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	p.labels++
	return &ir.WhileStmt{Cond: p.truthy(cond), Body: body,
		Label: fmt.Sprintf("%s.%d", p.fn.Name, p.labels)}, nil
}

func (p *parser) parseReturn() (ir.Stmt, error) {
	t := p.next() // return
	if p.accept(";") {
		if !p.fn.Ret.IsVoid() {
			return nil, p.errf(t, "missing return value in %s", p.fn.Name)
		}
		return &ir.ReturnStmt{}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if p.fn.Ret.IsVoid() {
		return nil, p.errf(t, "value return from void function %s", p.fn.Name)
	}
	return &ir.ReturnStmt{Val: ir.Cast(e, p.fn.Ret)}, nil
}

// parseSimpleStmt parses "lvalue op= expr ;", "lvalue++ ;", or "call(...) ;".
func (p *parser) parseSimpleStmt() (ir.Stmt, error) {
	s, err := p.parseAssignOnly()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return s, nil
}

var compoundOps = map[string]ir.BinOp{
	"+=": ir.OpAdd, "-=": ir.OpSub, "*=": ir.OpMul, "/=": ir.OpDiv, "%=": ir.OpRem,
	"&=": ir.OpAnd, "|=": ir.OpOr, "^=": ir.OpXor, "<<=": ir.OpShl, ">>=": ir.OpShr,
}

// parseAssignOnly parses an assignment or call without the trailing ';'.
func (p *parser) parseAssignOnly() (ir.Stmt, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errf(t, "expected statement, found %s", t)
	}
	// Call statement?
	if p.at(1).Kind == TokPunct && p.at(1).Text == "(" && typeFromName(t.Text) == nil {
		if p.prog.Func(t.Text) != nil {
			call, err := p.parseCall()
			if err != nil {
				return nil, err
			}
			return &ir.ExprStmt{Call: call}, nil
		}
	}
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	op := p.peek()
	_, isCompound := compoundOps[op.Text]
	switch {
	case op.Kind == TokPunct && op.Text == "=":
		p.next()
		rhs, err := p.parseAssignRHS()
		if err != nil {
			return nil, err
		}
		return p.mkAssign(lhs, rhs), nil
	case op.Kind == TokPunct && isCompound:
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		read := ir.CloneExpr(lhs, nil)
		return ir.Assign(lhs, p.mkBin(compoundOps[op.Text], read, rhs)), nil
	case op.Kind == TokPunct && (op.Text == "++" || op.Text == "--"):
		p.next()
		bop := ir.OpAdd
		if op.Text == "--" {
			bop = ir.OpSub
		}
		read := ir.CloneExpr(lhs, nil)
		one := ir.C(1, lhs.Type())
		return ir.Assign(lhs, p.mkBin(bop, read, one)), nil
	}
	return nil, p.errf(op, "expected assignment operator, found %s", op)
}

func (p *parser) parseLValue() (ir.LValue, error) {
	t := p.next()
	v := p.lookupVar(t.Text)
	if v == nil {
		return nil, p.errf(t, "undeclared variable %s", t.Text)
	}
	if p.peek().Kind == TokPunct && p.peek().Text == "[" {
		if !v.Type.IsArray() {
			return nil, p.errf(t, "%s is not an array", t.Text)
		}
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		return ir.Idx(v, idx), nil
	}
	if v.Type.IsArray() {
		return nil, p.errf(t, "array %s must be indexed", t.Text)
	}
	return ir.V(v), nil
}

// --- expressions (precedence climbing) ---

// truthy converts an integer expression to a boolean condition (C's
// "nonzero is true"); boolean expressions pass through.
func (p *parser) truthy(e ir.Expr) ir.Expr {
	if e.Type().IsBool() {
		return e
	}
	return ir.Bin(ir.OpNe, e, ir.C(0, e.Type()))
}

// mkBin builds a binary expression, narrowing constant operands into the
// other operand's type when the value fits (keeps hardware widths tight:
// "b & 0x3" on a uint8 stays 8 bits wide instead of widening to 32).
func (p *parser) mkBin(op ir.BinOp, l, r ir.Expr) ir.Expr {
	if op.IsLogical() {
		return ir.Bin(op, p.truthy(l), p.truthy(r))
	}
	lc, lIsC := l.(*ir.ConstExpr)
	rc, rIsC := r.(*ir.ConstExpr)
	if rIsC && !lIsC && l.Type().IsInt() && fitsIn(rc.Val, l.Type()) {
		r = ir.C(rc.Val, l.Type())
	} else if lIsC && !rIsC && r.Type().IsInt() && fitsIn(lc.Val, r.Type()) && op != ir.OpShl && op != ir.OpShr {
		l = ir.C(lc.Val, r.Type())
	}
	if l.Type().IsBool() && !op.IsLogical() && !op.IsComparison() {
		l = ir.Cast(l, ir.U1)
	}
	if r.Type().IsBool() && !op.IsLogical() && !op.IsComparison() {
		r = ir.Cast(r, ir.U1)
	}
	if op.IsComparison() {
		// Comparing bool against an int constant: normalize.
		if l.Type().IsBool() && !r.Type().IsBool() {
			l = ir.Cast(l, ir.U1)
		}
		if r.Type().IsBool() && !l.Type().IsBool() {
			r = ir.Cast(r, ir.U1)
		}
	}
	return ir.Bin(op, l, r)
}

func fitsIn(v int64, t *ir.Type) bool {
	return v >= t.MinValue() && v <= t.MaxValue()
}

func (p *parser) parseExpr() (ir.Expr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (ir.Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	thenE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	elseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return ir.Sel(p.truthy(cond), thenE, elseE), nil
}

// binary operator precedence table (higher binds tighter).
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var binOpOf = map[string]ir.BinOp{
	"||": ir.OpLOr, "&&": ir.OpLAnd,
	"|": ir.OpOr, "^": ir.OpXor, "&": ir.OpAnd,
	"==": ir.OpEq, "!=": ir.OpNe,
	"<": ir.OpLt, "<=": ir.OpLe, ">": ir.OpGt, ">=": ir.OpGe,
	"<<": ir.OpShl, ">>": ir.OpShr,
	"+": ir.OpAdd, "-": ir.OpSub,
	"*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem,
}

func (p *parser) parseBinary(minPrec int) (ir.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = p.mkBin(binOpOf[t.Text], lhs, rhs)
	}
}

func (p *parser) parseUnary() (ir.Expr, error) {
	t := p.peek()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if c, ok := x.(*ir.ConstExpr); ok {
				return ir.C(-c.Val, widenForNeg(c.Typ)), nil
			}
			return ir.Un(ir.OpNeg, x), nil
		case "~":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return ir.Un(ir.OpNot, x), nil
		case "!":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return ir.Un(ir.OpLNot, p.truthy(x)), nil
		case "(":
			// Cast "(type) expr" or grouping.
			if typ := p.peekType(1); typ != nil && p.at(2).Kind == TokPunct && p.at(2).Text == ")" {
				p.next()
				p.next()
				p.next()
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return ir.Cast(x, typ), nil
			}
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "+":
			p.next()
			return p.parseUnary()
		}
	}
	return p.parsePrimary()
}

// widenForNeg picks the type of a negated literal: negating an unsigned
// literal yields a signed type wide enough to hold the result.
func widenForNeg(t *ir.Type) *ir.Type {
	if t.IsBool() {
		return ir.Int(2)
	}
	if t.Signed {
		return t
	}
	w := t.Bits + 1
	if w > 64 {
		w = 64
	}
	return ir.Int(w)
}

// literalType picks the narrowest comfortable default type for a literal:
// int32 when it fits (C's default), otherwise the minimal unsigned width.
func literalType(v int64) *ir.Type {
	if v >= -(1<<31) && v < 1<<31 {
		return ir.I32
	}
	bits := 64
	for b := 32; b < 64; b++ {
		if v < 1<<uint(b) {
			bits = b + 1
			break
		}
	}
	return ir.UInt(bits)
}

func (p *parser) parsePrimary() (ir.Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.next()
		return ir.C(t.Val, literalType(t.Val)), nil
	case t.Kind == TokKeyword && t.Text == "true":
		p.next()
		return ir.CBool(true), nil
	case t.Kind == TokKeyword && t.Text == "false":
		p.next()
		return ir.CBool(false), nil
	case t.Kind == TokIdent:
		// Call?
		if p.at(1).Kind == TokPunct && p.at(1).Text == "(" {
			return p.parseCall()
		}
		p.next()
		v := p.lookupVar(t.Text)
		if v == nil {
			return nil, p.errf(t, "undeclared variable %s", t.Text)
		}
		if p.peek().Kind == TokPunct && p.peek().Text == "[" {
			if !v.Type.IsArray() {
				return nil, p.errf(t, "%s is not an array", t.Text)
			}
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			return ir.Idx(v, idx), nil
		}
		if v.Type.IsArray() {
			return nil, p.errf(t, "array %s must be indexed", t.Text)
		}
		return ir.V(v), nil
	}
	return nil, p.errf(t, "expected expression, found %s", t)
}

func (p *parser) parseCall() (*ir.CallExpr, error) {
	nameTok := p.next()
	f := p.prog.Func(nameTok.Text)
	if f == nil {
		return nil, p.errf(nameTok, "call to undefined function %s", nameTok.Text)
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var args []ir.Expr
	for !p.accept(")") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(",") && p.peek().Text != ")" {
			return nil, p.errf(p.peek(), "expected ',' or ')' in call to %s", nameTok.Text)
		}
	}
	if len(args) != len(f.Params) {
		return nil, p.errf(nameTok, "call to %s: %d args, want %d", nameTok.Text, len(args), len(f.Params))
	}
	for i, a := range args {
		args[i] = ir.Cast(a, f.Params[i].Type)
	}
	return &ir.CallExpr{Name: f.Name, F: f, Args: args}, nil
}
