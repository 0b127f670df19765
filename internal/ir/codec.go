package ir

import (
	"fmt"
	"sync/atomic"
)

// progDecodes counts DecodeProgram calls process-wide. The disk-revival
// fast path is contractually decode-free (verification is a streaming
// hash over the stored bytes); tests pin that contract by watching this
// counter stay flat across disk-warm sweeps.
var progDecodes atomic.Int64

// ProgramDecodeCount reports the number of DecodeProgram calls made by
// this process so far.
func ProgramDecodeCount() int64 { return progDecodes.Load() }

// This file is the lossless serialization of IR programs, used by the
// disk-backed artifact caches. The surface syntax (Print/Parse) is NOT
// a faithful codec: the parser re-infers expression result types and
// re-inserts width casts, so a transformed program — whose types were
// assigned by the passes, not the parser — does not round-trip through
// text. The encoded form below preserves expression types, variable
// flags, and temp-counter state exactly, so a decoded program is
// indistinguishable from the original to every downstream stage.
//
// Variables are encoded by reference into a per-program table (globals
// first, then each function's locals), mirroring how CloneProgram
// resolves identity; call targets are encoded as function indices.
//
// The program is flattened into the enc* intermediate structs below and
// framed by the deterministic binary codec of internal/wire (see
// wirecodec.go).

// TypeCode is the flattened wire form of *Type, exported so the codecs
// of the downstream stage artifacts (internal/htg, internal/sched,
// internal/rtl) can carry types without re-inventing the flattening.
// Arrays are one-dimensional with scalar elements, so one level of
// element fields suffices. A nil type encodes as Kind -1.
type TypeCode struct {
	Kind       int
	Bits       int
	Signed     bool
	Len        int // KindArray
	ElemKind   int // KindArray
	ElemBits   int
	ElemSigned bool
}

// EncodeType flattens a type into its wire form (nil → Kind -1).
func EncodeType(t *Type) TypeCode {
	if t == nil {
		return TypeCode{Kind: -1}
	}
	e := TypeCode{Kind: int(t.Kind), Bits: t.Bits, Signed: t.Signed}
	if t.Kind == KindArray {
		e.Len = t.Len
		e.ElemKind = int(t.Elem.Kind)
		e.ElemBits = t.Elem.Bits
		e.ElemSigned = t.Elem.Signed
	}
	return e
}

type encType = TypeCode

func encodeType(t *Type) encType { return EncodeType(t) }

// DecodeType is the inverse of EncodeType; malformed codes error rather
// than aliasing onto a wrong type.
func DecodeType(e TypeCode) (*Type, error) { return decodeType(e) }

func decodeType(e encType) (*Type, error) {
	if e.Kind == -1 {
		return nil, nil
	}
	mk := func(kind, bits int, signed bool) (*Type, error) {
		switch TypeKind(kind) {
		case KindBool:
			return Bool, nil
		case KindVoid:
			return Void, nil
		case KindInt:
			if bits < 1 || bits > 64 {
				return nil, fmt.Errorf("ir: decode: bad width %d", bits)
			}
			if signed {
				return Int(bits), nil
			}
			return UInt(bits), nil
		}
		return nil, fmt.Errorf("ir: decode: bad type kind %d", kind)
	}
	if TypeKind(e.Kind) == KindArray {
		elem, err := mk(e.ElemKind, e.ElemBits, e.ElemSigned)
		if err != nil {
			return nil, err
		}
		if e.Len < 1 {
			return nil, fmt.Errorf("ir: decode: bad array length %d", e.Len)
		}
		return Array(elem, e.Len), nil
	}
	return mk(e.Kind, e.Bits, e.Signed)
}

type encVar struct {
	Name      string
	Type      encType
	IsParam   bool
	IsGlobal  bool
	Wire      bool
	Synthetic bool
}

// Expression node kinds.
const (
	encConst = iota
	encVarRef
	encIndex
	encBin
	encUn
	encSel
	encCast
	encCall
)

// encExpr is the tagged union of expression nodes. Args holds children
// in a fixed per-kind order (e.g. Sel: cond, then, else).
type encExpr struct {
	Kind int
	Val  int64 // encConst
	Var  int   // encVarRef, encIndex: variable table reference
	Op   int   // encBin, encUn
	Func int   // encCall: function index, -1 if unresolved
	Name string
	Typ  encType
	Args []encExpr
}

// Statement node kinds.
const (
	encAssign = iota
	encIf
	encFor
	encWhile
	encReturn
	encExprStmt
	encBlock
)

type encStmt struct {
	Kind    int
	LHS     *encExpr // encAssign
	RHS     *encExpr
	Cond    *encExpr // encIf, encFor, encWhile
	Init    *encStmt // encFor (assign)
	Post    *encStmt
	Val     *encExpr // encReturn (nil for void)
	Call    *encExpr // encExprStmt
	Label   string
	Bound   int
	HasElse bool
	Then    []encStmt // encIf then / loop body / block stmts
	Else    []encStmt
}

type encFunc struct {
	Name        string
	Ret         encType
	Locals      []encVar // params are the locals with IsParam set
	TempCounter int
	Body        []encStmt
}

type encProgram struct {
	Name    string
	Globals []encVar
	Funcs   []encFunc
}

// --- encoding ---

type encoder struct {
	// varIndex maps each variable to its table reference: globals are
	// 0..G-1, the current function's locals follow from G.
	varIndex  map[*Var]int
	funcIndex map[*Func]int
}

func (en *encoder) varRef(v *Var) (int, error) {
	i, ok := en.varIndex[v]
	if !ok {
		return 0, fmt.Errorf("ir: encode: reference to foreign variable %q", v.Name)
	}
	return i, nil
}

func (en *encoder) expr(e Expr) (*encExpr, error) {
	if e == nil {
		return nil, nil
	}
	switch x := e.(type) {
	case *ConstExpr:
		return &encExpr{Kind: encConst, Val: x.Val, Typ: encodeType(x.Typ)}, nil
	case *VarExpr:
		i, err := en.varRef(x.V)
		if err != nil {
			return nil, err
		}
		return &encExpr{Kind: encVarRef, Var: i}, nil
	case *IndexExpr:
		i, err := en.varRef(x.Arr)
		if err != nil {
			return nil, err
		}
		idx, err := en.expr(x.Index)
		if err != nil {
			return nil, err
		}
		return &encExpr{Kind: encIndex, Var: i, Args: []encExpr{*idx}}, nil
	case *BinExpr:
		l, err := en.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := en.expr(x.R)
		if err != nil {
			return nil, err
		}
		return &encExpr{Kind: encBin, Op: int(x.Op), Typ: encodeType(x.Typ),
			Args: []encExpr{*l, *r}}, nil
	case *UnExpr:
		a, err := en.expr(x.X)
		if err != nil {
			return nil, err
		}
		return &encExpr{Kind: encUn, Op: int(x.Op), Typ: encodeType(x.Typ),
			Args: []encExpr{*a}}, nil
	case *SelExpr:
		c, err := en.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		th, err := en.expr(x.Then)
		if err != nil {
			return nil, err
		}
		el, err := en.expr(x.Else)
		if err != nil {
			return nil, err
		}
		return &encExpr{Kind: encSel, Typ: encodeType(x.Typ),
			Args: []encExpr{*c, *th, *el}}, nil
	case *CastExpr:
		a, err := en.expr(x.X)
		if err != nil {
			return nil, err
		}
		return &encExpr{Kind: encCast, Typ: encodeType(x.Typ), Args: []encExpr{*a}}, nil
	case *CallExpr:
		out := &encExpr{Kind: encCall, Name: x.Name, Func: -1}
		if x.F != nil {
			i, ok := en.funcIndex[x.F]
			if !ok {
				return nil, fmt.Errorf("ir: encode: call to foreign function %q", x.Name)
			}
			out.Func = i
		}
		for _, a := range x.Args {
			ea, err := en.expr(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, *ea)
		}
		return out, nil
	}
	return nil, fmt.Errorf("ir: encode: unknown expression type %T", e)
}

func (en *encoder) stmt(s Stmt) (*encStmt, error) {
	if s == nil {
		return nil, nil
	}
	switch x := s.(type) {
	case *AssignStmt:
		lhs, err := en.expr(x.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := en.expr(x.RHS)
		if err != nil {
			return nil, err
		}
		return &encStmt{Kind: encAssign, LHS: lhs, RHS: rhs}, nil
	case *IfStmt:
		cond, err := en.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := en.block(x.Then)
		if err != nil {
			return nil, err
		}
		out := &encStmt{Kind: encIf, Cond: cond, Then: then}
		if x.Else != nil {
			out.HasElse = true
			if out.Else, err = en.block(x.Else); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *ForStmt:
		cond, err := en.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		body, err := en.block(x.Body)
		if err != nil {
			return nil, err
		}
		out := &encStmt{Kind: encFor, Cond: cond, Then: body, Label: x.Label}
		if x.Init != nil {
			if out.Init, err = en.stmt(x.Init); err != nil {
				return nil, err
			}
		}
		if x.Post != nil {
			if out.Post, err = en.stmt(x.Post); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *WhileStmt:
		cond, err := en.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		body, err := en.block(x.Body)
		if err != nil {
			return nil, err
		}
		return &encStmt{Kind: encWhile, Cond: cond, Then: body,
			Label: x.Label, Bound: x.Bound}, nil
	case *ReturnStmt:
		val, err := en.expr(x.Val)
		if err != nil {
			return nil, err
		}
		return &encStmt{Kind: encReturn, Val: val}, nil
	case *ExprStmt:
		call, err := en.expr(x.Call)
		if err != nil {
			return nil, err
		}
		return &encStmt{Kind: encExprStmt, Call: call}, nil
	case *Block:
		stmts, err := en.block(x)
		if err != nil {
			return nil, err
		}
		return &encStmt{Kind: encBlock, Then: stmts}, nil
	}
	return nil, fmt.Errorf("ir: encode: unknown statement type %T", s)
}

func (en *encoder) block(b *Block) ([]encStmt, error) {
	if b == nil {
		return nil, nil
	}
	out := make([]encStmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		es, err := en.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, *es)
	}
	return out, nil
}

func encodeVar(v *Var) encVar {
	return encVar{Name: v.Name, Type: encodeType(v.Type), IsParam: v.IsParam,
		IsGlobal: v.IsGlobal, Wire: v.Wire, Synthetic: v.Synthetic}
}

// EncodeProgram serializes p losslessly into a self-contained byte
// string (deterministic wire framing). The inverse is DecodeProgram.
func EncodeProgram(p *Program) ([]byte, error) {
	ep, err := flattenProgram(p)
	if err != nil {
		return nil, err
	}
	return encodeProgramWire(ep), nil
}

// flattenProgram lowers the pointer-webbed program onto the enc*
// intermediate structs: variables become table indices, call targets
// function indices.
func flattenProgram(p *Program) (*encProgram, error) {
	ep := encProgram{Name: p.Name}
	en := &encoder{funcIndex: map[*Func]int{}}
	for i, f := range p.Funcs {
		en.funcIndex[f] = i
	}
	globals := map[*Var]int{}
	for i, g := range p.Globals {
		ep.Globals = append(ep.Globals, encodeVar(g))
		globals[g] = i
	}
	for _, f := range p.Funcs {
		ef := encFunc{Name: f.Name, Ret: encodeType(f.Ret), TempCounter: f.tempCounter}
		en.varIndex = make(map[*Var]int, len(globals)+len(f.Locals))
		for v, i := range globals {
			en.varIndex[v] = i
		}
		for i, v := range f.Locals {
			ef.Locals = append(ef.Locals, encodeVar(v))
			en.varIndex[v] = len(globals) + i
		}
		body, err := en.block(f.Body)
		if err != nil {
			return nil, fmt.Errorf("%s: func %s: %w", p.Name, f.Name, err)
		}
		ef.Body = body
		ep.Funcs = append(ep.Funcs, ef)
	}
	return &ep, nil
}

// --- decoding ---

type decoder struct {
	vars  []*Var // globals then current function's locals
	funcs []*Func
}

func (de *decoder) varAt(i int) (*Var, error) {
	if i < 0 || i >= len(de.vars) {
		return nil, fmt.Errorf("ir: decode: variable reference %d out of range", i)
	}
	return de.vars[i], nil
}

func (de *decoder) expr(e *encExpr) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	// Only some kinds carry a type of their own (VarRef, Index, and Call
	// derive theirs from the referenced entity and leave Typ zero).
	typ := (*Type)(nil)
	switch e.Kind {
	case encConst, encBin, encUn, encSel, encCast:
		var err error
		if typ, err = decodeType(e.Typ); err != nil {
			return nil, err
		}
	}
	arg := func(i int) (Expr, error) {
		if i >= len(e.Args) {
			return nil, fmt.Errorf("ir: decode: expression kind %d missing arg %d", e.Kind, i)
		}
		return de.expr(&e.Args[i])
	}
	switch e.Kind {
	case encConst:
		return &ConstExpr{Val: e.Val, Typ: typ}, nil
	case encVarRef:
		v, err := de.varAt(e.Var)
		if err != nil {
			return nil, err
		}
		return &VarExpr{V: v}, nil
	case encIndex:
		v, err := de.varAt(e.Var)
		if err != nil {
			return nil, err
		}
		idx, err := arg(0)
		if err != nil {
			return nil, err
		}
		return &IndexExpr{Arr: v, Index: idx}, nil
	case encBin:
		l, err := arg(0)
		if err != nil {
			return nil, err
		}
		r, err := arg(1)
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: BinOp(e.Op), L: l, R: r, Typ: typ}, nil
	case encUn:
		x, err := arg(0)
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: UnOp(e.Op), X: x, Typ: typ}, nil
	case encSel:
		c, err := arg(0)
		if err != nil {
			return nil, err
		}
		th, err := arg(1)
		if err != nil {
			return nil, err
		}
		el, err := arg(2)
		if err != nil {
			return nil, err
		}
		return &SelExpr{Cond: c, Then: th, Else: el, Typ: typ}, nil
	case encCast:
		x, err := arg(0)
		if err != nil {
			return nil, err
		}
		return &CastExpr{X: x, Typ: typ}, nil
	case encCall:
		out := &CallExpr{Name: e.Name}
		if e.Func >= 0 {
			if e.Func >= len(de.funcs) {
				return nil, fmt.Errorf("ir: decode: function reference %d out of range", e.Func)
			}
			out.F = de.funcs[e.Func]
		}
		for i := range e.Args {
			a, err := de.expr(&e.Args[i])
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, a)
		}
		return out, nil
	}
	return nil, fmt.Errorf("ir: decode: unknown expression kind %d", e.Kind)
}

func (de *decoder) stmt(s *encStmt) (Stmt, error) {
	if s == nil {
		return nil, nil
	}
	switch s.Kind {
	case encAssign:
		lhs, err := de.expr(s.LHS)
		if err != nil {
			return nil, err
		}
		lv, ok := lhs.(LValue)
		if !ok {
			return nil, fmt.Errorf("ir: decode: assignment LHS is %T", lhs)
		}
		rhs, err := de.expr(s.RHS)
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lv, RHS: rhs}, nil
	case encIf:
		cond, err := de.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := de.block(s.Then)
		if err != nil {
			return nil, err
		}
		out := &IfStmt{Cond: cond, Then: then}
		if s.HasElse {
			if out.Else, err = de.block(s.Else); err != nil {
				return nil, err
			}
		}
		return out, nil
	case encFor:
		cond, err := de.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := de.block(s.Then)
		if err != nil {
			return nil, err
		}
		out := &ForStmt{Cond: cond, Body: body, Label: s.Label}
		if s.Init != nil {
			st, err := de.stmt(s.Init)
			if err != nil {
				return nil, err
			}
			a, ok := st.(*AssignStmt)
			if !ok {
				return nil, fmt.Errorf("ir: decode: for-init is %T", st)
			}
			out.Init = a
		}
		if s.Post != nil {
			st, err := de.stmt(s.Post)
			if err != nil {
				return nil, err
			}
			a, ok := st.(*AssignStmt)
			if !ok {
				return nil, fmt.Errorf("ir: decode: for-post is %T", st)
			}
			out.Post = a
		}
		return out, nil
	case encWhile:
		cond, err := de.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := de.block(s.Then)
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Label: s.Label, Bound: s.Bound}, nil
	case encReturn:
		val, err := de.expr(s.Val)
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Val: val}, nil
	case encExprStmt:
		call, err := de.expr(s.Call)
		if err != nil {
			return nil, err
		}
		c, ok := call.(*CallExpr)
		if !ok {
			return nil, fmt.Errorf("ir: decode: expression statement is %T", call)
		}
		return &ExprStmt{Call: c}, nil
	case encBlock:
		b, err := de.block(s.Then)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("ir: decode: unknown statement kind %d", s.Kind)
}

func (de *decoder) block(stmts []encStmt) (*Block, error) {
	out := &Block{Stmts: make([]Stmt, 0, len(stmts))}
	for i := range stmts {
		s, err := de.stmt(&stmts[i])
		if err != nil {
			return nil, err
		}
		out.Stmts = append(out.Stmts, s)
	}
	return out, nil
}

func decodeVar(e encVar) (*Var, error) {
	t, err := decodeType(e.Type)
	if err != nil {
		return nil, err
	}
	return &Var{Name: e.Name, Type: t, IsParam: e.IsParam,
		IsGlobal: e.IsGlobal, Wire: e.Wire, Synthetic: e.Synthetic}, nil
}

// DecodeProgram reconstructs a program serialized by EncodeProgram. The
// result shares nothing with any other program; variable identity and
// call targets are rebuilt from the encoded reference tables.
func DecodeProgram(data []byte) (*Program, error) {
	progDecodes.Add(1)
	ep, err := decodeProgramWire(data)
	if err != nil {
		return nil, fmt.Errorf("ir: decode: %w", err)
	}
	return rebuildProgram(ep)
}

// rebuildProgram resolves the flattened intermediate form back into a
// pointer-webbed program, validating every table reference.
func rebuildProgram(ep *encProgram) (*Program, error) {
	p := NewProgram(ep.Name)
	de := &decoder{}
	globals := make([]*Var, 0, len(ep.Globals))
	for _, eg := range ep.Globals {
		g, err := decodeVar(eg)
		if err != nil {
			return nil, err
		}
		globals = append(globals, g)
		p.Globals = append(p.Globals, g)
	}
	// Materialize every function shell first so calls can resolve
	// forward references.
	for _, ef := range ep.Funcs {
		ret, err := decodeType(ef.Ret)
		if err != nil {
			return nil, err
		}
		f := &Func{Name: ef.Name, Ret: ret, tempCounter: ef.TempCounter}
		for _, ev := range ef.Locals {
			v, err := decodeVar(ev)
			if err != nil {
				return nil, err
			}
			f.Locals = append(f.Locals, v)
			if v.IsParam {
				f.Params = append(f.Params, v)
			}
		}
		p.Funcs = append(p.Funcs, f)
		de.funcs = append(de.funcs, f)
	}
	for i, ef := range ep.Funcs {
		f := p.Funcs[i]
		de.vars = de.vars[:0]
		de.vars = append(de.vars, globals...)
		de.vars = append(de.vars, f.Locals...)
		body, err := de.block(ef.Body)
		if err != nil {
			return nil, fmt.Errorf("%s: func %s: %w", ep.Name, ef.Name, err)
		}
		f.Body = body
	}
	return p, nil
}
