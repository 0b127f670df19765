// Package ir defines the behavioral intermediate representation used by the
// sparkgo high-level synthesis system.
//
// The IR models the ANSI-C subset that the Spark paper (Gupta et al., DAC
// 2002) uses in all of its code listings: bit-accurate integer scalars,
// booleans, one-dimensional arrays, structured control flow (if/for/while),
// and functions. Coarse-grain transformations (inlining, loop unrolling,
// speculation, constant propagation) operate directly on this representation;
// the scheduler operates on the three-address hierarchical task graph lowered
// from it (package htg).
//
// All integer values are width-masked two's-complement. A value of type
// uintN or intN always fits in N bits; package interp and package rtlsim
// apply identical masking so behavioral and RTL simulation agree exactly.
package ir

import (
	"fmt"
	"strconv"
)

// TypeKind discriminates the IR type universe.
type TypeKind int

const (
	// KindInt is a fixed-width two's-complement integer.
	KindInt TypeKind = iota
	// KindBool is a single-bit logical value (distinct from uint1 for
	// type-checking purposes, but identical in hardware).
	KindBool
	// KindArray is a one-dimensional array with static length.
	KindArray
	// KindVoid is the return type of value-less functions.
	KindVoid
)

func (k TypeKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindArray:
		return "array"
	case KindVoid:
		return "void"
	}
	return fmt.Sprintf("TypeKind(%d)", int(k))
}

// Type is an IR type. Types are immutable after construction and may be
// shared freely between expressions.
type Type struct {
	Kind   TypeKind
	Bits   int   // significant bits, 1..64 (KindInt only)
	Signed bool  // two's-complement interpretation (KindInt only)
	Elem   *Type // element type (KindArray only)
	Len    int   // number of elements (KindArray only)
}

// Pre-built singleton types for the common cases.
var (
	Bool   = &Type{Kind: KindBool, Bits: 1}
	Void   = &Type{Kind: KindVoid}
	U1     = UInt(1)
	U4     = UInt(4)
	U8     = UInt(8)
	U16    = UInt(16)
	U32    = UInt(32)
	I32    = Int(32)
	USizeT = UInt(16) // index arithmetic width used by generated code
)

// intTypes holds the one *Type of each integer type, indexed by
// signedness and width, so that Int and UInt allocate nothing.
var intTypes = func() (t [2][65]*Type) {
	for bits := 1; bits <= 64; bits++ {
		t[0][bits] = &Type{Kind: KindInt, Bits: bits}
		t[1][bits] = &Type{Kind: KindInt, Bits: bits, Signed: true}
	}
	return t
}()

// Int returns the signed integer type with the given bit width.
func Int(bits int) *Type {
	if bits < 1 || bits > 64 {
		panic(fmt.Sprintf("ir.Int: invalid width %d", bits))
	}
	return intTypes[1][bits]
}

// UInt returns the unsigned integer type with the given bit width.
func UInt(bits int) *Type {
	if bits < 1 || bits > 64 {
		panic(fmt.Sprintf("ir.UInt: invalid width %d", bits))
	}
	return intTypes[0][bits]
}

// Array returns the array type with the given element type and length.
func Array(elem *Type, n int) *Type {
	if elem == nil || elem.Kind == KindArray || elem.Kind == KindVoid {
		panic("ir.Array: invalid element type")
	}
	if n < 1 {
		panic(fmt.Sprintf("ir.Array: invalid length %d", n))
	}
	return &Type{Kind: KindArray, Elem: elem, Len: n}
}

// IsInt reports whether t is a fixed-width integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == KindInt }

// IsBool reports whether t is the boolean type.
func (t *Type) IsBool() bool { return t != nil && t.Kind == KindBool }

// IsArray reports whether t is an array type.
func (t *Type) IsArray() bool { return t != nil && t.Kind == KindArray }

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t != nil && t.Kind == KindVoid }

// IsScalar reports whether t is a value type storable in a register:
// an integer or a boolean.
func (t *Type) IsScalar() bool { return t.IsInt() || t.IsBool() }

// Width returns the number of hardware bits needed to store a value of t.
// Booleans occupy one bit. Panics for arrays and void.
func (t *Type) Width() int {
	switch t.Kind {
	case KindInt:
		return t.Bits
	case KindBool:
		return 1
	}
	panic("ir.Type.Width: not a scalar type: " + t.String())
}

// Equal reports structural type equality.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindInt:
		return t.Bits == u.Bits && t.Signed == u.Signed
	case KindBool, KindVoid:
		return true
	case KindArray:
		return t.Len == u.Len && t.Elem.Equal(u.Elem)
	}
	return false
}

// String renders the type using the surface syntax accepted by the parser
// (e.g. "uint8", "int32", "bool", "uint8[19]").
func (t *Type) String() string {
	if t == nil {
		return "<nil-type>"
	}
	switch t.Kind {
	case KindBool:
		return "bool"
	case KindVoid:
		return "void"
	case KindInt:
		if t.Signed {
			return "int" + strconv.Itoa(t.Bits)
		}
		return "uint" + strconv.Itoa(t.Bits)
	case KindArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	}
	return "<bad-type>"
}

// Mask returns the bit mask covering the significant bits of t.
func (t *Type) Mask() uint64 {
	w := t.Width()
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// Canon masks (and for signed types sign-extends) raw into the value domain
// of t, returning the canonical int64 representation used throughout the
// interpreter and RTL simulator.
func (t *Type) Canon(raw int64) int64 {
	switch t.Kind {
	case KindBool:
		if raw&1 != 0 {
			return 1
		}
		return 0
	case KindInt:
		w := uint(t.Bits)
		if w >= 64 {
			return raw
		}
		v := uint64(raw) & t.Mask()
		if t.Signed && v&(uint64(1)<<(w-1)) != 0 {
			v |= ^t.Mask()
		}
		return int64(v)
	}
	panic("ir.Type.Canon: not a scalar type: " + t.String())
}

// MaxValue returns the largest canonical value representable in t.
func (t *Type) MaxValue() int64 {
	if t.IsBool() {
		return 1
	}
	if !t.IsInt() {
		panic("ir.Type.MaxValue: not scalar")
	}
	if t.Signed {
		return int64(t.Mask() >> 1)
	}
	return int64(t.Mask())
}

// MinValue returns the smallest canonical value representable in t.
func (t *Type) MinValue() int64 {
	if t.IsBool() {
		return 0
	}
	if !t.IsInt() {
		panic("ir.Type.MinValue: not scalar")
	}
	if t.Signed {
		return -int64(t.Mask()>>1) - 1
	}
	return 0
}
