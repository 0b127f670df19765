package htg

import (
	"strings"
	"testing"

	"sparkgo/internal/ir"
	"sparkgo/internal/wire"
)

// TestDecodeRejectsForgedNesting feeds the graph decoder a ~32 MB
// payload of nested Seq regions over a valid program: deep enough that
// an unbounded recursive decoder overflows its stack (a fatal error,
// not a panic), small enough to pass every blob-size limit.
func TestDecodeRejectsForgedNesting(t *testing.T) {
	p := ir.NewProgram("forged")
	p.AddFunc(ir.NewFunc("main", ir.Void))
	prog, err := ir.EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	const levels = 16 << 20 // 2 bytes each
	e := wire.NewEncoder(2*levels + len(prog) + 64)
	e.Tag(graphTag)
	e.Bytes(prog)
	e.Int(0)     // function
	e.Int(-1)    // return variable
	e.Int(0)     // next op ID
	e.Uvarint(0) // blocks
	for range levels {
		e.Uvarint(1) // a region holding one region
		e.Int(nodeSeq)
	}
	e.Uvarint(0)
	_, err = DecodeGraph(e.Data())
	if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("err = %v, want a nesting error", err)
	}
}
