package ir

import (
	"strings"
	"testing"

	"sparkgo/internal/wire"
)

// forgedProgram frames a one-function program whose body is written by
// body, the way a client could forge a payload for the blob store.
func forgedProgram(size int, body func(e *wire.Encoder)) []byte {
	e := wire.NewEncoder(size + 64)
	e.Tag(progTag)
	e.String("forged")
	e.Uvarint(0) // globals
	e.Uvarint(1) // functions
	e.String("main")
	PutType(e, U8)
	e.Uvarint(0) // locals
	e.Int(0)     // temp counter
	body(e)
	return e.Data()
}

func wantNestingError(t *testing.T, data []byte) {
	t.Helper()
	_, err := DecodeProgram(data)
	if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("decode of a %d-byte over-nested payload: err = %v, want a nesting error", len(data), err)
	}
}

// TestDecodeRejectsForgedNesting feeds the decoder ~32 MB payloads of
// nested expressions and nested blocks: deep enough that an unbounded
// recursive decoder overflows its stack (a fatal error, not a panic),
// small enough to pass every blob-size limit.
func TestDecodeRejectsForgedNesting(t *testing.T) {
	t.Run("expressions", func(t *testing.T) {
		const levels = 5 << 20 // 6 bytes each
		wantNestingError(t, forgedProgram(6*levels, func(e *wire.Encoder) {
			e.Uvarint(1) // one statement: return -(-(...1))
			e.Int(stmtReturn)
			e.Bool(true)
			for range levels {
				e.Int(exprUn)
				e.Int(int(OpNeg))
				PutType(e, U8)
				e.Uvarint(1)
			}
			e.Int(exprConst)
			e.Int64(1)
			PutType(e, U8)
			e.Uvarint(0)
		}))
	})
	t.Run("statements", func(t *testing.T) {
		const levels = 16 << 20 // 2 bytes each
		wantNestingError(t, forgedProgram(2*levels, func(e *wire.Encoder) {
			for range levels {
				e.Uvarint(1) // a block holding one block
				e.Int(stmtBlock)
			}
			e.Uvarint(0)
		}))
	})
}

// TestNestingBound checks both walks enforce the same bound: a chain
// exactly wire.MaxDepth deep round-trips, and one level more is
// unencodable — the encoder never writes what the decoder rejects, so
// an over-deep program is computed uncached instead of persisted.
func TestNestingBound(t *testing.T) {
	chain := func(depth int) *Program {
		p := NewProgram("chain")
		a := p.NewGlobal("a", U8)
		out := p.NewGlobal("out", U8)
		var x Expr = V(a)
		for range depth - 1 {
			x = &BinExpr{Op: OpAdd, L: x, R: V(a), Typ: U8}
		}
		f := NewFunc("main", Void)
		f.Body.Add(AssignRaw(V(out), x))
		p.AddFunc(f)
		return p
	}
	data, err := EncodeProgram(chain(wire.MaxDepth))
	if err != nil {
		t.Fatalf("%d-deep chain: encode: %v", wire.MaxDepth, err)
	}
	if _, err := DecodeProgram(data); err != nil {
		t.Fatalf("%d-deep chain: decode: %v", wire.MaxDepth, err)
	}
	if _, err := EncodeProgram(chain(wire.MaxDepth + 1)); err == nil ||
		!strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("%d-deep chain: encode err = %v, want a nesting error", wire.MaxDepth+1, err)
	}
}

// TestDecodeRejectsArrayOfVoid pins a forged type that used to reach
// ir.Array's panic: an array whose element kind is void.
func TestDecodeRejectsArrayOfVoid(t *testing.T) {
	e := wire.NewEncoder(64)
	e.Tag(progTag)
	e.String("forged")
	e.Uvarint(1) // one global of type void[3]
	e.String("g")
	e.Int(int(KindArray))
	e.Int(0)
	e.Bool(false)
	e.Int(3)
	e.Int(int(KindVoid))
	e.Int(0)
	e.Bool(false)
	for range 4 {
		e.Bool(false)
	}
	e.Uvarint(0) // functions
	if _, err := DecodeProgram(e.Data()); err == nil {
		t.Fatal("decoded an array of void")
	}
}
