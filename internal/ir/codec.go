package ir

// This file is the lossless serialization of IR programs, used by the
// disk-backed artifact caches. The surface syntax (Print/Parse) is NOT
// a faithful codec: the parser re-infers expression result types and
// re-inserts width casts, so a transformed program — whose types were
// assigned by the passes, not the parser — does not round-trip through
// text. The encoded form preserves expression types, variable flags,
// and temp-counter state exactly, so a decoded program is
// indistinguishable from the original to every downstream stage.
//
// Each direction is one walk over internal/wire: the encoder writes the
// live program field by field in a fixed order, and the decoder reads
// the bytes straight back into live nodes. Variables travel as indices
// into a per-function table (globals first, then the function's
// locals), mirroring how CloneProgram resolves identity; call targets
// travel as function indices. Optional sub-nodes sit behind presence
// booleans, and the tagged unions (expressions, statements) write their
// kind first and then only the fields that kind carries.

import (
	"fmt"
	"sync/atomic"

	"sparkgo/internal/wire"
)

// progTag versions the IR wire layout; bump it when the layout changes
// so stale bytes fail the tag check instead of mis-decoding.
const progTag = "irprog/1"

// progDecodes counts DecodeProgram calls process-wide. The disk-revival
// fast path is contractually decode-free (verification is a streaming
// hash over the stored bytes); tests pin that contract by watching this
// counter stay flat across disk-warm sweeps.
var progDecodes atomic.Int64

// ProgramDecodeCount reports the number of DecodeProgram calls made by
// this process so far.
func ProgramDecodeCount() int64 { return progDecodes.Load() }

// Expression node kinds, in wire order.
const (
	exprConst = iota
	exprVar
	exprIndex
	exprBin
	exprUn
	exprSel
	exprCast
	exprCall
)

// Statement node kinds, in wire order.
const (
	stmtAssign = iota
	stmtIf
	stmtFor
	stmtWhile
	stmtReturn
	stmtExpr
	stmtBlock
)

// PutType writes a type to a wire encoder — exported so the downstream
// artifact codecs (htg, rtl) carry types in the same layout. A nil type
// is kind -1; non-array kinds never carry the element fields, keeping
// the common case at three values. Arrays are one-dimensional with
// scalar elements, so one level of element fields suffices.
func PutType(e *wire.Encoder, t *Type) {
	if t == nil {
		e.Int(-1)
		return
	}
	e.Int(int(t.Kind))
	e.Int(t.Bits)
	e.Bool(t.Signed)
	if t.Kind == KindArray {
		e.Int(t.Len)
		e.Int(int(t.Elem.Kind))
		e.Int(t.Elem.Bits)
		e.Bool(t.Elem.Signed)
	}
}

// GetType is the inverse of PutType. Malformed types error rather than
// aliasing onto a wrong type; after a wire failure it reports that.
func GetType(d *wire.Decoder) (*Type, error) {
	kind := d.Int()
	if kind == -1 {
		return nil, nil
	}
	bits, signed := d.Int(), d.Bool()
	if kind != int(KindArray) {
		return scalarType(d, kind, bits, signed)
	}
	n := d.Int()
	elem, err := scalarType(d, d.Int(), d.Int(), d.Bool())
	if err != nil {
		return nil, err
	}
	if elem == Void {
		return nil, fmt.Errorf("array of void")
	}
	if n < 1 {
		return nil, fmt.Errorf("bad array length %d", n)
	}
	return Array(elem, n), nil
}

func scalarType(d *wire.Decoder, kind, bits int, signed bool) (*Type, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch TypeKind(kind) {
	case KindBool:
		return Bool, nil
	case KindVoid:
		return Void, nil
	case KindInt:
		if bits < 1 || bits > 64 {
			return nil, fmt.Errorf("bad type width %d", bits)
		}
		if signed {
			return Int(bits), nil
		}
		return UInt(bits), nil
	}
	return nil, fmt.Errorf("bad type kind %d", kind)
}

// --- encoding ---

type progEncoder struct {
	e *wire.Encoder
	// vars maps each variable to its table reference: globals are
	// 0..G-1, the current function's locals follow from G.
	vars  map[*Var]int
	funcs map[*Func]int
}

// EncodeProgram serializes p losslessly into a self-contained byte
// string (deterministic wire framing). The inverse is DecodeProgram.
func EncodeProgram(p *Program) ([]byte, error) {
	en := &progEncoder{e: wire.NewEncoder(256), funcs: make(map[*Func]int, len(p.Funcs))}
	for i, f := range p.Funcs {
		en.funcs[f] = i
	}
	e := en.e
	e.Tag(progTag)
	e.String(p.Name)
	e.Uvarint(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		putVar(e, g)
	}
	e.Uvarint(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		if en.vars == nil {
			en.vars = make(map[*Var]int, len(p.Globals)+len(f.Locals))
		}
		clear(en.vars)
		for i, g := range p.Globals {
			en.vars[g] = i
		}
		e.String(f.Name)
		PutType(e, f.Ret)
		e.Uvarint(uint64(len(f.Locals)))
		for i, v := range f.Locals {
			putVar(e, v)
			en.vars[v] = len(p.Globals) + i
		}
		e.Int(f.tempCounter)
		if err := en.block(f.Body, 0); err != nil {
			return nil, fmt.Errorf("%s: func %s: %w", p.Name, f.Name, err)
		}
	}
	return e.Data(), nil
}

func putVar(e *wire.Encoder, v *Var) {
	e.String(v.Name)
	PutType(e, v.Type)
	e.Bool(v.IsParam)
	e.Bool(v.IsGlobal)
	e.Bool(v.Wire)
	e.Bool(v.Synthetic)
}

func (en *progEncoder) varRef(v *Var) error {
	i, ok := en.vars[v]
	if !ok {
		return fmt.Errorf("ir: encode: reference to foreign variable %q", v.Name)
	}
	en.e.Int(i)
	return nil
}

// errEncodeDepth refuses a tree the decoder would reject as too deep,
// so every encoding decodes: an over-deep program is unencodable, and
// the caches compute it instead of persisting it.
var errEncodeDepth = fmt.Errorf("ir: encode: nesting deeper than %d", wire.MaxDepth)

// expr writes one expression node: its kind, the kind's own fields,
// then the argument count and the arguments.
func (en *progEncoder) expr(x Expr, depth int) error {
	if depth > wire.MaxDepth {
		return errEncodeDepth
	}
	e := en.e
	var args []Expr
	switch x := x.(type) {
	case *ConstExpr:
		e.Int(exprConst)
		e.Int64(x.Val)
		PutType(e, x.Typ)
	case *VarExpr:
		e.Int(exprVar)
		if err := en.varRef(x.V); err != nil {
			return err
		}
	case *IndexExpr:
		e.Int(exprIndex)
		if err := en.varRef(x.Arr); err != nil {
			return err
		}
		args = []Expr{x.Index}
	case *BinExpr:
		e.Int(exprBin)
		e.Int(int(x.Op))
		PutType(e, x.Typ)
		args = []Expr{x.L, x.R}
	case *UnExpr:
		e.Int(exprUn)
		e.Int(int(x.Op))
		PutType(e, x.Typ)
		args = []Expr{x.X}
	case *SelExpr:
		e.Int(exprSel)
		PutType(e, x.Typ)
		args = []Expr{x.Cond, x.Then, x.Else}
	case *CastExpr:
		e.Int(exprCast)
		PutType(e, x.Typ)
		args = []Expr{x.X}
	case *CallExpr:
		fi := -1
		if x.F != nil {
			i, ok := en.funcs[x.F]
			if !ok {
				return fmt.Errorf("ir: encode: call to foreign function %q", x.Name)
			}
			fi = i
		}
		e.Int(exprCall)
		e.String(x.Name)
		e.Int(fi)
		args = x.Args
	default:
		return fmt.Errorf("ir: encode: unknown expression type %T", x)
	}
	e.Uvarint(uint64(len(args)))
	for _, a := range args {
		if a == nil {
			return fmt.Errorf("ir: encode: nil operand")
		}
		if err := en.expr(a, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// optExpr writes an optional expression behind a presence flag.
func (en *progEncoder) optExpr(x Expr, depth int) error {
	en.e.Bool(x != nil)
	if x == nil {
		return nil
	}
	return en.expr(x, depth)
}

// optAssign writes an optional for-loop init/post behind a presence flag.
func (en *progEncoder) optAssign(s *AssignStmt, depth int) error {
	en.e.Bool(s != nil)
	if s == nil {
		return nil
	}
	return en.stmt(s, depth)
}

func (en *progEncoder) stmt(s Stmt, depth int) error {
	if depth > wire.MaxDepth {
		return errEncodeDepth
	}
	e := en.e
	switch x := s.(type) {
	case *AssignStmt:
		e.Int(stmtAssign)
		if err := en.optExpr(x.LHS, depth+1); err != nil {
			return err
		}
		return en.optExpr(x.RHS, depth+1)
	case *IfStmt:
		e.Int(stmtIf)
		if err := en.optExpr(x.Cond, depth+1); err != nil {
			return err
		}
		if err := en.block(x.Then, depth+1); err != nil {
			return err
		}
		e.Bool(x.Else != nil)
		if x.Else == nil {
			return nil
		}
		return en.block(x.Else, depth+1)
	case *ForStmt:
		e.Int(stmtFor)
		if err := en.optExpr(x.Cond, depth+1); err != nil {
			return err
		}
		if err := en.block(x.Body, depth+1); err != nil {
			return err
		}
		e.String(x.Label)
		if err := en.optAssign(x.Init, depth+1); err != nil {
			return err
		}
		return en.optAssign(x.Post, depth+1)
	case *WhileStmt:
		e.Int(stmtWhile)
		if err := en.optExpr(x.Cond, depth+1); err != nil {
			return err
		}
		if err := en.block(x.Body, depth+1); err != nil {
			return err
		}
		e.String(x.Label)
		e.Int(x.Bound)
		return nil
	case *ReturnStmt:
		e.Int(stmtReturn)
		return en.optExpr(x.Val, depth+1)
	case *ExprStmt:
		e.Int(stmtExpr)
		// A nil *CallExpr is absent, not a typed-nil Expr.
		var call Expr
		if x.Call != nil {
			call = x.Call
		}
		return en.optExpr(call, depth+1)
	case *Block:
		e.Int(stmtBlock)
		return en.block(x, depth+1)
	}
	return fmt.Errorf("ir: encode: unknown statement type %T", s)
}

// block writes a statement list; a nil block encodes as an empty one.
func (en *progEncoder) block(b *Block, depth int) error {
	if b == nil {
		en.e.Uvarint(0)
		return nil
	}
	en.e.Uvarint(uint64(len(b.Stmts)))
	for _, s := range b.Stmts {
		if err := en.stmt(s, depth); err != nil {
			return err
		}
	}
	return nil
}

// --- decoding ---

type progDecoder struct {
	d     *wire.Decoder
	vars  []*Var // globals then the current function's locals
	funcs []*Func
}

// DecodeProgram reconstructs a program serialized by EncodeProgram. The
// result shares nothing with any other program; variable identity and
// call targets are rebuilt from the encoded reference tables, and every
// reference is range-checked.
func DecodeProgram(data []byte) (*Program, error) {
	progDecodes.Add(1)
	p, err := decodeProgram(wire.NewDecoder(data))
	if err != nil {
		return nil, fmt.Errorf("ir: decode: %w", err)
	}
	return p, nil
}

func decodeProgram(d *wire.Decoder) (*Program, error) {
	d.Tag(progTag)
	p := NewProgram(d.String())
	de := &progDecoder{d: d}
	globals, err := de.varList()
	if err != nil {
		return nil, err
	}
	p.Globals = globals
	// Every function shell exists before any body is read, so calls can
	// resolve forward references.
	n := d.Len(4) // a function is >= 4 bytes
	if n > 0 {
		shells := make([]Func, n)
		p.Funcs = make([]*Func, n)
		for i := range shells {
			p.Funcs[i] = &shells[i]
		}
	}
	de.funcs = p.Funcs
	for _, f := range p.Funcs {
		f.Name = d.String()
		if f.Ret, err = GetType(d); err != nil {
			return nil, err
		}
		if f.Locals, err = de.varList(); err != nil {
			return nil, err
		}
		for _, v := range f.Locals {
			if v.IsParam {
				f.Params = append(f.Params, v)
			}
		}
		f.tempCounter = d.Int()
		de.vars = append(append(de.vars[:0], globals...), f.Locals...)
		if f.Body, err = de.block(0); err != nil {
			return nil, fmt.Errorf("%s: func %s: %w", p.Name, f.Name, err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// fail reports a semantic decode error — unless the wire decoder has
// already failed, in which case its zero values caused this one and the
// wire error is the real cause.
func (de *progDecoder) fail(format string, args ...any) error {
	if err := de.d.Err(); err != nil {
		return err
	}
	return fmt.Errorf(format, args...)
}

// varList reads a length-prefixed variable list into one block.
func (de *progDecoder) varList() ([]*Var, error) {
	d := de.d
	n := d.Len(2) // a variable is >= 2 bytes (name len + kind)
	if n == 0 {
		return nil, d.Err()
	}
	block := make([]Var, n)
	out := make([]*Var, n)
	for i := range block {
		v := &block[i]
		v.Name = d.String()
		t, err := GetType(d)
		if err != nil {
			return nil, err
		}
		v.Type = t
		v.IsParam, v.IsGlobal, v.Wire, v.Synthetic = d.Bool(), d.Bool(), d.Bool(), d.Bool()
		out[i] = v
	}
	return out, d.Err()
}

func (de *progDecoder) varAt() (*Var, error) {
	i := de.d.Int()
	if i < 0 || i >= len(de.vars) {
		return nil, de.fail("variable reference %d out of range", i)
	}
	return de.vars[i], nil
}

// nest bounds the decoder's recursion: a forged payload of deeply
// nested nodes must fail, not overflow the stack.
func (de *progDecoder) nest(depth int) error {
	if depth > wire.MaxDepth {
		return de.fail("nesting deeper than %d", wire.MaxDepth)
	}
	return nil
}

func (de *progDecoder) expr(depth int) (Expr, error) {
	if err := de.nest(depth); err != nil {
		return nil, err
	}
	d := de.d
	var (
		x   Expr
		err error
	)
	switch kind := d.Int(); kind {
	case exprConst:
		c := &ConstExpr{Val: d.Int64()}
		if c.Typ, err = GetType(d); err == nil {
			err = de.args(depth)
		}
		x = c
	case exprVar:
		v := &VarExpr{}
		if v.V, err = de.varAt(); err == nil {
			err = de.args(depth)
		}
		x = v
	case exprIndex:
		ix := &IndexExpr{}
		if ix.Arr, err = de.varAt(); err == nil {
			err = de.args(depth, &ix.Index)
		}
		x = ix
	case exprBin:
		b := &BinExpr{Op: BinOp(d.Int())}
		if b.Typ, err = GetType(d); err == nil {
			err = de.args(depth, &b.L, &b.R)
		}
		x = b
	case exprUn:
		u := &UnExpr{Op: UnOp(d.Int())}
		if u.Typ, err = GetType(d); err == nil {
			err = de.args(depth, &u.X)
		}
		x = u
	case exprSel:
		sel := &SelExpr{}
		if sel.Typ, err = GetType(d); err == nil {
			err = de.args(depth, &sel.Cond, &sel.Then, &sel.Else)
		}
		x = sel
	case exprCast:
		c := &CastExpr{}
		if c.Typ, err = GetType(d); err == nil {
			err = de.args(depth, &c.X)
		}
		x = c
	case exprCall:
		c := &CallExpr{Name: d.String()}
		x, err = c, de.call(c, depth)
	default:
		return nil, de.fail("unknown expression kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// args reads an expression's argument count, which must match the
// fields of its kind, and decodes one argument into each field.
func (de *progDecoder) args(depth int, fields ...*Expr) error {
	if n := de.d.Len(2); n != len(fields) { // an expression node is >= 2 bytes
		return de.fail("expression has %d args, want %d", n, len(fields))
	}
	for _, f := range fields {
		x, err := de.expr(depth + 1)
		if err != nil {
			return err
		}
		*f = x
	}
	return nil
}

// call reads a call's target, -1 when unresolved, and its arguments.
func (de *progDecoder) call(c *CallExpr, depth int) error {
	fi := de.d.Int()
	if fi < -1 || fi >= len(de.funcs) {
		return de.fail("function reference %d out of range", fi)
	}
	if fi >= 0 {
		c.F = de.funcs[fi]
	}
	n := de.d.Len(2) // an expression node is >= 2 bytes
	if n == 0 {
		return nil
	}
	c.Args = make([]Expr, n)
	for i := range c.Args {
		x, err := de.expr(depth + 1)
		if err != nil {
			return err
		}
		c.Args[i] = x
	}
	return nil
}

// optExpr reads an optional expression behind its presence flag.
func (de *progDecoder) optExpr(depth int) (Expr, error) {
	if !de.d.Bool() {
		return nil, nil
	}
	return de.expr(depth)
}

// optAssign reads an optional for-loop init/post.
func (de *progDecoder) optAssign(depth int, what string) (*AssignStmt, error) {
	if !de.d.Bool() {
		return nil, nil
	}
	s, err := de.stmt(depth)
	if err != nil {
		return nil, err
	}
	a, ok := s.(*AssignStmt)
	if !ok {
		return nil, de.fail("for-%s is %T", what, s)
	}
	return a, nil
}

func (de *progDecoder) stmt(depth int) (Stmt, error) {
	if err := de.nest(depth); err != nil {
		return nil, err
	}
	switch kind := de.d.Int(); kind {
	case stmtAssign:
		lhs, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		lv, ok := lhs.(LValue)
		if !ok {
			return nil, de.fail("assignment LHS is %T", lhs)
		}
		rhs, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lv, RHS: rhs}, nil
	case stmtIf:
		cond, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		then, err := de.block(depth + 1)
		if err != nil {
			return nil, err
		}
		s := &IfStmt{Cond: cond, Then: then}
		if de.d.Bool() {
			if s.Else, err = de.block(depth + 1); err != nil {
				return nil, err
			}
		}
		return s, nil
	case stmtFor:
		cond, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		body, err := de.block(depth + 1)
		if err != nil {
			return nil, err
		}
		s := &ForStmt{Cond: cond, Body: body, Label: de.d.String()}
		if s.Init, err = de.optAssign(depth+1, "init"); err != nil {
			return nil, err
		}
		if s.Post, err = de.optAssign(depth+1, "post"); err != nil {
			return nil, err
		}
		return s, nil
	case stmtWhile:
		cond, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		body, err := de.block(depth + 1)
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Label: de.d.String(), Bound: de.d.Int()}, nil
	case stmtReturn:
		val, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Val: val}, nil
	case stmtExpr:
		call, err := de.optExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		c, ok := call.(*CallExpr)
		if !ok {
			return nil, de.fail("expression statement is %T", call)
		}
		return &ExprStmt{Call: c}, nil
	case stmtBlock:
		return de.block(depth + 1)
	default:
		return nil, de.fail("unknown statement kind %d", kind)
	}
}

func (de *progDecoder) block(depth int) (*Block, error) {
	n := de.d.Len(1)
	b := &Block{Stmts: make([]Stmt, n)}
	for i := range b.Stmts {
		s, err := de.stmt(depth)
		if err != nil {
			return nil, err
		}
		b.Stmts[i] = s
	}
	return b, nil
}
