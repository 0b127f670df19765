// Package interp executes ir programs directly. It is the golden reference
// model for the whole synthesis flow: every transformation pass and the
// generated RTL are validated by comparing against interpretation of the
// original behavioral description on the same inputs.
//
// Semantics are bit-accurate: all values are canonicalized through
// ir.Type.Canon after every operation, so an 8-bit counter wraps at 256
// exactly as the synthesized datapath does. Out-of-range array reads yield
// zero and out-of-range writes are dropped, matching the paper's convention
// that bytes beyond the ILD buffer contribute zero length and matching
// package rtlsim.
package interp

import (
	"fmt"

	"sparkgo/internal/ir"
)

// Env holds the storage state of one interpretation: scalar values and
// array contents, keyed by variable identity.
type Env struct {
	Scalars map[*ir.Var]int64
	Arrays  map[*ir.Var][]int64
}

// NewEnv creates an empty environment with storage allocated for every
// global of p (zero-initialized).
func NewEnv(p *ir.Program) *Env {
	e := &Env{Scalars: map[*ir.Var]int64{}, Arrays: map[*ir.Var][]int64{}}
	for _, g := range p.Globals {
		e.alloc(g)
	}
	return e
}

func (e *Env) alloc(v *ir.Var) {
	if v.Type.IsArray() {
		e.Arrays[v] = make([]int64, v.Type.Len)
	} else {
		e.Scalars[v] = 0
	}
}

// SetScalar stores a scalar value (canonicalized to the variable's type).
func (e *Env) SetScalar(v *ir.Var, val int64) { e.Scalars[v] = v.Type.Canon(val) }

// Scalar reads a scalar value.
func (e *Env) Scalar(v *ir.Var) int64 { return e.Scalars[v] }

// SetArray replaces the contents of an array variable (canonicalizing each
// element; the slice is copied).
func (e *Env) SetArray(v *ir.Var, vals []int64) {
	a := make([]int64, v.Type.Len)
	for i := 0; i < len(a) && i < len(vals); i++ {
		a[i] = v.Type.Elem.Canon(vals[i])
	}
	e.Arrays[v] = a
}

// Array returns the contents of an array variable.
func (e *Env) Array(v *ir.Var) []int64 { return e.Arrays[v] }

// Clone deep-copies the environment.
func (e *Env) Clone() *Env {
	ne := &Env{Scalars: make(map[*ir.Var]int64, len(e.Scalars)),
		Arrays: make(map[*ir.Var][]int64, len(e.Arrays))}
	for k, v := range e.Scalars {
		ne.Scalars[k] = v
	}
	for k, v := range e.Arrays {
		ne.Arrays[k] = append([]int64(nil), v...)
	}
	return ne
}

// Interp is a configured interpreter instance.
type Interp struct {
	prog *ir.Program

	// MaxSteps bounds the number of statements executed, guarding against
	// non-terminating loops in malformed descriptions. Zero means the
	// default (10 million).
	MaxSteps int

	steps int
}

// New creates an interpreter for the program.
func New(p *ir.Program) *Interp { return &Interp{prog: p} }

// Run executes function fn (by name) with the given arguments in env.
// Globals live in env and persist across calls; locals are per-invocation.
// It returns the function's return value (0 for void).
func (in *Interp) Run(env *Env, fn string, args ...int64) (int64, error) {
	f := in.prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", fn)
	}
	in.steps = 0
	return in.call(env, f, args)
}

// RunMain executes the program's top-level function with no arguments.
func (in *Interp) RunMain(env *Env) (int64, error) {
	m := in.prog.Main()
	if m == nil {
		return 0, fmt.Errorf("interp: program has no main function")
	}
	in.steps = 0
	return in.call(env, m, nil)
}

type returnSignal struct{ val int64 }

func (in *Interp) limit() int {
	if in.MaxSteps > 0 {
		return in.MaxSteps
	}
	return 10_000_000
}

func (in *Interp) call(env *Env, f *ir.Func, args []int64) (val int64, err error) {
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: call %s: %d args, want %d", f.Name, len(args), len(f.Params))
	}
	frame := &frame{env: env, locals: map[*ir.Var]int64{}, arrays: map[*ir.Var][]int64{}}
	for _, v := range f.Locals {
		if v.IsGlobal {
			continue
		}
		if v.Type.IsArray() {
			frame.arrays[v] = make([]int64, v.Type.Len)
		} else {
			frame.locals[v] = 0
		}
	}
	for i, p := range f.Params {
		frame.locals[p] = p.Type.Canon(args[i])
	}
	defer func() {
		if r := recover(); r != nil {
			if rs, ok := r.(returnSignal); ok {
				val = rs.val
				return
			}
			panic(r)
		}
	}()
	if err := in.block(frame, f.Body); err != nil {
		return 0, err
	}
	return 0, nil
}

// frame is one function activation: locals shadow globals of the same Var
// identity never collide because sema keeps them distinct objects.
type frame struct {
	env    *Env
	locals map[*ir.Var]int64
	arrays map[*ir.Var][]int64
}

func (fr *frame) read(v *ir.Var) int64 {
	if v.IsGlobal {
		return fr.env.Scalars[v]
	}
	return fr.locals[v]
}

func (fr *frame) write(v *ir.Var, val int64) {
	val = v.Type.Canon(val)
	if v.IsGlobal {
		fr.env.Scalars[v] = val
	} else {
		fr.locals[v] = val
	}
}

func (fr *frame) array(v *ir.Var) []int64 {
	if v.IsGlobal {
		return fr.env.Arrays[v]
	}
	return fr.arrays[v]
}

func (in *Interp) block(fr *frame, b *ir.Block) error {
	for _, s := range b.Stmts {
		if err := in.stmt(fr, s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) stmt(fr *frame, s ir.Stmt) error {
	in.steps++
	if in.steps > in.limit() {
		return fmt.Errorf("interp: step limit exceeded (%d)", in.limit())
	}
	switch x := s.(type) {
	case *ir.AssignStmt:
		var rhs int64
		if call, ok := x.RHS.(*ir.CallExpr); ok {
			v, err := in.evalCall(fr, call)
			if err != nil {
				return err
			}
			rhs = v
		} else {
			v, err := in.eval(fr, x.RHS)
			if err != nil {
				return err
			}
			rhs = v
		}
		return in.store(fr, x.LHS, rhs)
	case *ir.IfStmt:
		c, err := in.eval(fr, x.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return in.block(fr, x.Then)
		}
		if x.Else != nil {
			return in.block(fr, x.Else)
		}
		return nil
	case *ir.ForStmt:
		if x.Init != nil {
			if err := in.stmt(fr, x.Init); err != nil {
				return err
			}
		}
		for {
			c, err := in.eval(fr, x.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := in.block(fr, x.Body); err != nil {
				return err
			}
			if x.Post != nil {
				if err := in.stmt(fr, x.Post); err != nil {
					return err
				}
			}
			in.steps++
			if in.steps > in.limit() {
				return fmt.Errorf("interp: step limit exceeded in loop")
			}
		}
	case *ir.WhileStmt:
		for {
			c, err := in.eval(fr, x.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := in.block(fr, x.Body); err != nil {
				return err
			}
			in.steps++
			if in.steps > in.limit() {
				return fmt.Errorf("interp: step limit exceeded in loop")
			}
		}
	case *ir.ReturnStmt:
		var v int64
		if x.Val != nil {
			var err error
			v, err = in.eval(fr, x.Val)
			if err != nil {
				return err
			}
		}
		panic(returnSignal{val: v})
	case *ir.ExprStmt:
		_, err := in.evalCall(fr, x.Call)
		return err
	case *ir.Block:
		return in.block(fr, x)
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

func (in *Interp) store(fr *frame, lhs ir.LValue, val int64) error {
	switch l := lhs.(type) {
	case *ir.VarExpr:
		fr.write(l.V, val)
		return nil
	case *ir.IndexExpr:
		idx, err := in.eval(fr, l.Index)
		if err != nil {
			return err
		}
		arr := fr.array(l.Arr)
		if idx >= 0 && idx < int64(len(arr)) {
			arr[idx] = l.Arr.Type.Elem.Canon(val)
		}
		// Out-of-range stores are dropped (see package comment).
		return nil
	}
	return fmt.Errorf("interp: bad lvalue %T", lhs)
}

func (in *Interp) evalCall(fr *frame, c *ir.CallExpr) (int64, error) {
	if c.F == nil {
		return 0, fmt.Errorf("interp: unresolved call %s", c.Name)
	}
	args := make([]int64, len(c.Args))
	for i, a := range c.Args {
		v, err := in.eval(fr, a)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	return in.call(fr.env, c.F, args)
}

func (in *Interp) eval(fr *frame, e ir.Expr) (int64, error) {
	switch x := e.(type) {
	case *ir.ConstExpr:
		return x.Val, nil
	case *ir.VarExpr:
		return fr.read(x.V), nil
	case *ir.IndexExpr:
		idx, err := in.eval(fr, x.Index)
		if err != nil {
			return 0, err
		}
		arr := fr.array(x.Arr)
		if idx < 0 || idx >= int64(len(arr)) {
			return 0, nil // out-of-range reads yield zero
		}
		return arr[idx], nil
	case *ir.BinExpr:
		// Short-circuit logical operators first.
		if x.Op == ir.OpLAnd || x.Op == ir.OpLOr {
			l, err := in.eval(fr, x.L)
			if err != nil {
				return 0, err
			}
			if x.Op == ir.OpLAnd && l == 0 {
				return 0, nil
			}
			if x.Op == ir.OpLOr && l != 0 {
				return 1, nil
			}
			r, err := in.eval(fr, x.R)
			if err != nil {
				return 0, err
			}
			if r != 0 {
				return 1, nil
			}
			return 0, nil
		}
		l, err := in.eval(fr, x.L)
		if err != nil {
			return 0, err
		}
		r, err := in.eval(fr, x.R)
		if err != nil {
			return 0, err
		}
		return EvalBinOp(x.Op, l, r, x.Typ, UnsignedOperands(x.L.Type(), x.R.Type()))
	case *ir.UnExpr:
		v, err := in.eval(fr, x.X)
		if err != nil {
			return 0, err
		}
		return EvalUnOp(x.Op, v, x.Typ), nil
	case *ir.SelExpr:
		c, err := in.eval(fr, x.Cond)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			v, err := in.eval(fr, x.Then)
			if err != nil {
				return 0, err
			}
			return x.Typ.Canon(v), nil
		}
		v, err := in.eval(fr, x.Else)
		if err != nil {
			return 0, err
		}
		return x.Typ.Canon(v), nil
	case *ir.CastExpr:
		v, err := in.eval(fr, x.X)
		if err != nil {
			return 0, err
		}
		return x.Typ.Canon(v), nil
	case *ir.CallExpr:
		return 0, fmt.Errorf("interp: call %s in expression position", x.Name)
	}
	return 0, fmt.Errorf("interp: unknown expression %T", e)
}

// UnsignedOperands reports whether a binary operation on operands of the
// given types uses unsigned semantics for comparison, division, and
// right-shift. The rule (simplified from C's usual arithmetic conversions):
// unsigned unless both operands are signed integers. Booleans count as
// unsigned.
func UnsignedOperands(lt, rt *ir.Type) bool {
	signed := func(t *ir.Type) bool { return t.IsInt() && t.Signed }
	return !(signed(lt) && signed(rt))
}

// EvalBinOp applies a binary operator to canonical operand values,
// returning the canonical result of type t. unsignedOps selects unsigned
// semantics for order comparisons, division, remainder, and right shift
// (canonical values of unsigned types narrower than 64 bits are
// non-negative, so the flag only changes behaviour at full width).
// Shared with the RTL simulator so datapath functional units compute
// identically to the interpreter.
func EvalBinOp(op ir.BinOp, l, r int64, t *ir.Type, unsignedOps bool) (int64, error) {
	v, err := EvalBinOpRaw(op, l, r, unsignedOps)
	if err != nil {
		return 0, err
	}
	return t.Canon(v), nil
}

// EvalBinOpRaw is EvalBinOp without the final canonicalization: the raw
// 64-bit result, for callers that canonicalize on their own (division by
// zero yields zero; shifts saturate past the word width).
func EvalBinOpRaw(op ir.BinOp, l, r int64, unsignedOps bool) (int64, error) {
	var v int64
	ul, ur := uint64(l), uint64(r)
	switch op {
	case ir.OpAdd:
		v = l + r
	case ir.OpSub:
		v = l - r
	case ir.OpMul:
		v = l * r
	case ir.OpDiv:
		if r == 0 {
			v = 0 // division by zero yields zero (hardware convention)
		} else if unsignedOps {
			v = int64(ul / ur)
		} else {
			v = l / r
		}
	case ir.OpRem:
		if r == 0 {
			v = 0
		} else if unsignedOps {
			v = int64(ul % ur)
		} else {
			v = l % r
		}
	case ir.OpAnd:
		v = l & r
	case ir.OpOr:
		v = l | r
	case ir.OpXor:
		v = l ^ r
	case ir.OpShl:
		s := ur
		if s >= 64 {
			v = 0
		} else {
			v = int64(ul << s)
		}
	case ir.OpShr:
		s := ur
		if s >= 64 {
			if !unsignedOps && l < 0 {
				v = -1
			} else {
				v = 0
			}
		} else if unsignedOps {
			// Canonical unsigned values are already masked to
			// width, so a logical shift of the raw bits is exact.
			v = int64(ul >> s)
		} else {
			v = l >> s
		}
	case ir.OpEq:
		v = b2i(l == r)
	case ir.OpNe:
		v = b2i(l != r)
	case ir.OpLt:
		if unsignedOps {
			v = b2i(ul < ur)
		} else {
			v = b2i(l < r)
		}
	case ir.OpLe:
		if unsignedOps {
			v = b2i(ul <= ur)
		} else {
			v = b2i(l <= r)
		}
	case ir.OpGt:
		if unsignedOps {
			v = b2i(ul > ur)
		} else {
			v = b2i(l > r)
		}
	case ir.OpGe:
		if unsignedOps {
			v = b2i(ul >= ur)
		} else {
			v = b2i(l >= r)
		}
	case ir.OpLAnd:
		v = b2i(l != 0 && r != 0)
	case ir.OpLOr:
		v = b2i(l != 0 || r != 0)
	default:
		return 0, fmt.Errorf("interp: unknown binary op %v", op)
	}
	return v, nil
}

// EvalUnOp applies a unary operator, returning the canonical result.
func EvalUnOp(op ir.UnOp, x int64, t *ir.Type) int64 {
	var v int64
	switch op {
	case ir.OpNeg:
		v = -x
	case ir.OpNot:
		v = ^x
	case ir.OpLNot:
		v = b2i(x == 0)
	}
	return t.Canon(v)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
