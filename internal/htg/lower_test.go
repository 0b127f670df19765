package htg_test

import (
	"fmt"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/htg"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/wire"
)

// TestDecodeGraphRejectsForgedOpIDs pins what midend revival relies on,
// as no graph is persisted. Lower numbers ops exactly 0..n-1 in AllOps
// order, which is how plans reference ops, and lowering a decoded copy
// of the program before lowering rebuilds the same graph:
// every op (ID, block and printed form) and the VarTable (names and
// types). The designs are ILD and its natural form after the frontend,
// under both presets, with and without unrolling.
func TestDecodeGraphRejectsForgedOpIDs(t *testing.T) {
	type design struct {
		name string
		prog *ir.Program
		opt  core.Options
	}
	var designs []design
	for _, n := range []int{4, 8, 16} {
		designs = append(designs,
			design{fmt.Sprintf("ild%d-micro", n), ild.Program(n), core.Options{Preset: core.MicroprocessorBlock}},
			design{fmt.Sprintf("ild%d-classical", n), ild.Program(n), core.Options{Preset: core.ClassicalASIC}})
	}
	designs = append(designs,
		design{"ild8-micro-nounroll", ild.Program(8), core.Options{Preset: core.MicroprocessorBlock, NoUnroll: true}},
		design{"ild8-natural", ild.NaturalProgram(8), core.Options{Preset: core.MicroprocessorBlock, NormalizeWhile: true}})
	for _, d := range designs {
		fa, err := core.Frontend(d.prog, d.opt.FrontendOptions())
		if err != nil {
			t.Fatalf("%s: frontend: %v", d.name, err)
		}
		enc := fa.Materialize()
		work := ir.CloneProgram(fa.Program)
		g, err := htg.Lower(work, work.Main())
		if err != nil {
			t.Fatalf("%s: lower: %v", d.name, err)
		}
		decoded, err := ir.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", d.name, err)
		}
		g2, err := htg.Lower(decoded, decoded.Main())
		if err != nil {
			t.Fatalf("%s: lower the decoded program: %v", d.name, err)
		}

		ops, ops2 := g.AllOps(), g2.AllOps()
		if len(ops) != len(ops2) {
			t.Fatalf("%s: %d ops, %d after re-lowering", d.name, len(ops), len(ops2))
		}
		for i, op := range ops {
			if op.ID != i {
				t.Fatalf("%s: op %d in AllOps order has ID %d", d.name, i, op.ID)
			}
			op2 := ops2[i]
			if op2.ID != op.ID || op2.BB.ID != op.BB.ID || op2.String() != op.String() {
				t.Fatalf("%s: op %d is #%d %s in BB%d, re-lowered #%d %s in BB%d",
					d.name, i, op.ID, op, op.BB.ID, op2.ID, op2, op2.BB.ID)
			}
		}
		vars, vars2 := g.VarTable(), g2.VarTable()
		if len(vars) != len(vars2) {
			t.Fatalf("%s: %d variables, %d after re-lowering", d.name, len(vars), len(vars2))
		}
		for i, v := range vars {
			if v2 := vars2[i]; v2.Name != v.Name || !v2.Type.Equal(v.Type) {
				t.Fatalf("%s: variable %d is %s %s, re-lowered %s %s", d.name, i, v.Type, v.Name, v2.Type, v2.Name)
			}
		}
	}
}

// TestDecodeRejectsForgedNesting lowers the most deeply nested program
// the IR decoder accepts: blocks nested as far as the wire.MaxDepth
// bound lets the codec go, around one assignment. Revival lowers every
// program that decodes, so Lower must handle that depth.
func TestDecodeRejectsForgedNesting(t *testing.T) {
	nested := func(depth int) *ir.Program {
		p := ir.NewProgram("nested")
		a := p.NewGlobal("a", ir.U8)
		out := p.NewGlobal("out", ir.U8)
		inner := (&ir.Block{}).Add(ir.AssignRaw(ir.V(out), &ir.BinExpr{Op: ir.OpAdd, L: ir.V(a), R: ir.V(a), Typ: ir.U8}))
		for range depth {
			inner = (&ir.Block{}).Add(inner)
		}
		f := ir.NewFunc("main", ir.Void)
		f.Body.Add(inner)
		p.AddFunc(f)
		return p
	}
	// The deepest nesting that encodes: the encoder never writes what the
	// decoder rejects.
	depth := wire.MaxDepth
	var enc []byte
	for ; depth > 0; depth-- {
		var err error
		if enc, err = ir.EncodeProgram(nested(depth)); err == nil {
			break
		}
	}
	if _, err := ir.EncodeProgram(nested(depth + 1)); err == nil ||
		!strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("%d nested blocks: encode err = %v, want a nesting error", depth+1, err)
	}
	p, err := ir.DecodeProgram(enc)
	if err != nil {
		t.Fatalf("%d nested blocks: decode: %v", depth, err)
	}
	g, err := htg.Lower(p, p.Main())
	if err != nil {
		t.Fatalf("%d nested blocks: lower: %v", depth, err)
	}
	if n := g.OpCount(); n != 1 {
		t.Fatalf("%d nested blocks lowered to %d ops, want 1", depth, n)
	}
}
