package ir

import "fmt"

// Var is a named storage location: a function parameter, local, compiler
// temporary, or module-level global. Vars are compared by pointer identity;
// two distinct *Var values with the same name are different variables (the
// semantic analyzer guarantees unique names within a function after scope
// resolution).
type Var struct {
	Name string
	Type *Type

	// IsParam marks function parameters.
	IsParam bool
	// IsGlobal marks module-level storage (the block's architectural
	// inputs/outputs, e.g. the ILD instruction buffer and mark vector).
	IsGlobal bool
	// Wire marks a wire-variable in the sense of paper §3.1.2: the
	// variable is read in the same cycle it is written and must not be
	// bound to a register. Set by the scheduler's chaining pass.
	Wire bool
	// Synthetic marks compiler-generated temporaries (speculation temps,
	// inlining copies, wire variables).
	Synthetic bool
	// ID is the dense number Func.NumberVars gives the variable for one
	// pass over a function, so the pass can keep its per-variable facts
	// in slices. It means nothing outside that pass: clones, decoded
	// programs and hand-built IR carry whatever ID they were given last.
	// An int32 keeps a Var in a 32-byte allocation.
	ID int32
}

func (v *Var) String() string { return v.Name }

// BinOp enumerates binary operators. The set matches the C subset used by
// the paper's listings plus the usual logical/relational complement.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd // bitwise &
	OpOr  // bitwise |
	OpXor // bitwise ^
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLAnd // logical &&
	OpLOr  // logical ||
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpLAnd: "&&", OpLOr: "||",
}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// IsComparison reports whether op yields a boolean from two integers.
func (op BinOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// IsLogical reports whether op combines two booleans.
func (op BinOp) IsLogical() bool { return op == OpLAnd || op == OpLOr }

// UnOp enumerates unary operators.
type UnOp int

const (
	OpNeg  UnOp = iota // arithmetic negation
	OpNot              // bitwise complement ~
	OpLNot             // logical negation !
)

func (op UnOp) String() string {
	switch op {
	case OpNeg:
		return "-"
	case OpNot:
		return "~"
	case OpLNot:
		return "!"
	}
	return fmt.Sprintf("UnOp(%d)", int(op))
}

// Expr is an IR expression. Expressions are side-effect free except
// CallExpr, which the semantic analyzer restricts to top-level positions
// (the full RHS of an assignment, or an expression statement) so that every
// other expression may be freely duplicated, hoisted, and speculated.
type Expr interface {
	// Type returns the result type of the expression.
	Type() *Type
	isExpr()
}

// ConstExpr is an integer or boolean literal.
type ConstExpr struct {
	Val int64 // canonical (width-masked, sign-extended) value
	Typ *Type
}

func (e *ConstExpr) Type() *Type { return e.Typ }
func (e *ConstExpr) isExpr()     {}

// VarExpr reads a scalar variable.
type VarExpr struct {
	V *Var
}

func (e *VarExpr) Type() *Type { return e.V.Type }
func (e *VarExpr) isExpr()     {}

// IndexExpr reads one element of an array variable.
// Out-of-range indices read as zero (hardware returns an arbitrary value;
// fixing it to zero matches the paper's footnote that bytes past the buffer
// contribute zero length, and keeps behavioral and RTL simulation aligned).
type IndexExpr struct {
	Arr   *Var
	Index Expr
}

func (e *IndexExpr) Type() *Type { return e.Arr.Type.Elem }
func (e *IndexExpr) isExpr()     {}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	L, R Expr
	Typ  *Type
}

func (e *BinExpr) Type() *Type { return e.Typ }
func (e *BinExpr) isExpr()     {}

// UnExpr applies a unary operator.
type UnExpr struct {
	Op  UnOp
	X   Expr
	Typ *Type
}

func (e *UnExpr) Type() *Type { return e.Typ }
func (e *UnExpr) isExpr()     {}

// SelExpr is the C conditional operator cond ? then : else. It maps to a
// two-way multiplexer in hardware and is the expression form into which
// speculated conditionals may be folded.
type SelExpr struct {
	Cond       Expr
	Then, Else Expr
	Typ        *Type
}

func (e *SelExpr) Type() *Type { return e.Typ }
func (e *SelExpr) isExpr()     {}

// CastExpr converts between scalar types: zero/sign extension, truncation,
// and bool<->int. Casts are free in hardware (pure wiring) but are kept
// explicit so bit widths are always known.
type CastExpr struct {
	X   Expr
	Typ *Type
}

func (e *CastExpr) Type() *Type { return e.Typ }
func (e *CastExpr) isExpr()     {}

// CallExpr invokes a function. After semantic analysis Callee is resolved
// to the *Func; transformations (inlining) eliminate calls before lowering,
// and the HTG lowering rejects residual calls.
type CallExpr struct {
	Name string
	F    *Func // resolved target (set by sema)
	Args []Expr
}

func (e *CallExpr) Type() *Type {
	if e.F == nil {
		return Void
	}
	return e.F.Ret
}
func (e *CallExpr) isExpr() {}

// LValue is the destination of an assignment: a scalar variable or an array
// element.
type LValue interface {
	Expr
	isLValue()
}

func (e *VarExpr) isLValue()   {}
func (e *IndexExpr) isLValue() {}

// --- Convenience constructors used by builders, tests, and generators ---

// C returns a constant of the given type, canonicalized.
func C(val int64, t *Type) *ConstExpr { return &ConstExpr{Val: t.Canon(val), Typ: t} }

// CBool returns a boolean constant.
func CBool(b bool) *ConstExpr {
	if b {
		return &ConstExpr{Val: 1, Typ: Bool}
	}
	return &ConstExpr{Val: 0, Typ: Bool}
}

// V reads a variable.
func V(v *Var) *VarExpr { return &VarExpr{V: v} }

// Idx reads arr[index].
func Idx(arr *Var, index Expr) *IndexExpr { return &IndexExpr{Arr: arr, Index: index} }

// Bin builds a binary expression, computing the result type with the same
// rules the semantic analyzer applies (max operand width; comparisons and
// logical operators yield bool).
func Bin(op BinOp, l, r Expr) *BinExpr {
	return &BinExpr{Op: op, L: l, R: r, Typ: binResultType(op, l.Type(), r.Type())}
}

// binResultType computes the result type of op applied to lt and rt.
func binResultType(op BinOp, lt, rt *Type) *Type {
	if op.IsComparison() || op.IsLogical() {
		return Bool
	}
	if op == OpShl || op == OpShr {
		if lt.IsBool() {
			return U1
		}
		return lt
	}
	// Arithmetic/bitwise: result takes the wider operand's width; the
	// result is signed only when both operands are signed.
	lw, rw := scalarWidth(lt), scalarWidth(rt)
	w := lw
	if rw > w {
		w = rw
	}
	signed := isSignedScalar(lt) && isSignedScalar(rt)
	if signed {
		return Int(w)
	}
	return UInt(w)
}

func scalarWidth(t *Type) int {
	if t.IsBool() {
		return 1
	}
	return t.Bits
}

func isSignedScalar(t *Type) bool { return t.IsInt() && t.Signed }

// Un builds a unary expression with the analyzer's typing rules.
func Un(op UnOp, x Expr) *UnExpr {
	t := x.Type()
	if op == OpLNot {
		t = Bool
	} else if t.IsBool() {
		t = U1
	}
	return &UnExpr{Op: op, X: x, Typ: t}
}

// Sel builds a conditional (mux) expression.
func Sel(cond, then, els Expr) *SelExpr {
	return &SelExpr{Cond: cond, Then: then, Else: els,
		Typ: binResultType(OpAdd, then.Type(), els.Type())}
}

// Cast converts x to type t (no-op if already of type t).
func Cast(x Expr, t *Type) Expr {
	if x.Type().Equal(t) {
		return x
	}
	if c, ok := x.(*ConstExpr); ok {
		return C(c.Val, t)
	}
	return &CastExpr{X: x, Typ: t}
}

// Shorthand binary builders (used heavily by the ILD generator and tests).

// Add returns l + r.
func Add(l, r Expr) *BinExpr { return Bin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) *BinExpr { return Bin(OpSub, l, r) }

// And returns l & r.
func And(l, r Expr) *BinExpr { return Bin(OpAnd, l, r) }

// Shl returns l << r.
func Shl(l, r Expr) *BinExpr { return Bin(OpShl, l, r) }

// Eq returns l == r.
func Eq(l, r Expr) *BinExpr { return Bin(OpEq, l, r) }

// Lt returns l < r.
func Lt(l, r Expr) *BinExpr { return Bin(OpLt, l, r) }

// Call builds a call expression (unresolved; sema or the caller sets F).
func Call(f *Func, args ...Expr) *CallExpr {
	return &CallExpr{Name: f.Name, F: f, Args: args}
}
