package ir_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
)

// TestCodecRoundTripILD pins the lossless-codec contract on the programs
// that actually flow through the disk cache: both the raw generated ILD
// description and its transformed frontend artifact — whose expression
// types were assigned by the passes, not the parser, and which therefore
// does NOT survive a Print/Parse round trip.
func TestCodecRoundTripILD(t *testing.T) {
	transformed, err := core.Frontend(ild.Program(4),
		core.Options{Preset: core.MicroprocessorBlock}.FrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*ir.Program{
		"generated":   ild.Program(4),
		"natural":     ild.NaturalProgram(4),
		"transformed": transformed.Program,
	} {
		data, err := ir.EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := ir.DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := ir.Validate(got); err != nil {
			t.Fatalf("%s: decoded program invalid: %v", name, err)
		}
		if ir.Print(got) != ir.Print(p) {
			t.Fatalf("%s: decoded program prints differently", name)
		}
		if ir.Fingerprint(got) != ir.Fingerprint(p) {
			t.Fatalf("%s: fingerprint changed across codec round trip", name)
		}
	}
}

// TestCodecPreservesWhatPrintLoses builds a program whose expression
// types deliberately disagree with parser inference, and checks the
// codec keeps them where the text round trip would not.
func TestCodecPreservesWhatPrintLoses(t *testing.T) {
	p := ir.NewProgram("edge")
	a := p.NewGlobal("a", ir.U4)
	out := p.NewGlobal("out", ir.U16)
	f := ir.NewFunc("main", ir.Void)
	// 0 + a typed uint16 directly — the parser would type it uint4 and
	// wrap a cast around it.
	wide := &ir.BinExpr{Op: ir.OpAdd, L: ir.C(0, ir.U16), R: ir.V(a), Typ: ir.U16}
	f.Body.Add(ir.AssignRaw(ir.V(out), wide))
	tmp := f.NewTemp("t", ir.Bool)
	f.Body.Add(ir.Assign(ir.V(tmp), ir.Lt(ir.V(a), ir.C(3, ir.U4))))
	p.AddFunc(f)

	data, err := ir.EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ir.DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	bin := got.Funcs[0].Body.Stmts[0].(*ir.AssignStmt).RHS.(*ir.BinExpr)
	if !bin.Typ.Equal(ir.U16) {
		t.Fatalf("BinExpr type = %s, want uint16", bin.Typ)
	}
	v := got.Funcs[0].Lookup("t_1")
	if v == nil || !v.Synthetic {
		t.Fatalf("synthetic temp flag lost: %+v", v)
	}
	// tempCounter must carry over so revived programs keep generating
	// unique names.
	if w := got.Funcs[0].NewTemp("t", ir.Bool); w.Name == "t_1" {
		t.Fatalf("temp counter reset: new temp collides with %q", w.Name)
	}
}

// TestDecodeRejectsCorruptInput checks corrupt bytes fail loudly.
func TestDecodeRejectsCorruptInput(t *testing.T) {
	if _, err := ir.DecodeProgram([]byte("not a program")); err == nil {
		t.Fatal("decoded garbage without error")
	}
}

// updateRaw regenerates the raw-program fingerprint golden file:
//
//	go test ./internal/ir -run TestRawFingerprintGolden -update
//
// Regenerate ONLY after an intentional codec change: these fingerprints
// key every frontend and point cache entry, so drift silently orphans
// every persisted artifact.
var updateRaw = flag.Bool("update", false, "rewrite the raw-program fingerprint golden file")

// everyKindProgram hand-builds a program holding every expression and
// statement kind the codec knows, including the shapes the transformed
// artifacts never carry: a call to a later function, an unresolved
// call, an expression statement, a nested block, a for loop with init
// and post, a bounded while loop, and ifs with and without else.
func everyKindProgram() *ir.Program {
	p := ir.NewProgram("every")
	buf := p.NewGlobal("buf", ir.Array(ir.U8, 4))
	out := p.NewGlobal("out", ir.Int(16))
	ready := p.NewGlobal("ready", ir.Bool)

	x := &ir.Var{Name: "x", Type: ir.U8}
	top := ir.NewFunc("main", ir.Void)
	helper := ir.NewFunc("helper", ir.U8, x)

	i := top.NewLocal("i", ir.U8)
	w := top.NewTemp("w", ir.U16)
	w.Wire = true
	loop := &ir.ForStmt{
		Init:  ir.AssignRaw(ir.V(i), ir.C(0, ir.U8)),
		Cond:  ir.Lt(ir.V(i), ir.C(4, ir.U8)),
		Post:  ir.AssignRaw(ir.V(i), ir.Add(ir.V(i), ir.C(1, ir.U8))),
		Body:  ir.NewBlock(ir.AssignRaw(ir.Idx(buf, ir.V(i)), ir.Call(helper, ir.V(i)))),
		Label: "fill",
	}
	wait := &ir.WhileStmt{
		Cond:  ir.Un(ir.OpLNot, ir.V(ready)),
		Body:  ir.NewBlock(ir.AssignRaw(ir.V(ready), ir.CBool(true))),
		Label: "wait",
		Bound: 3,
	}
	top.Body.Add(
		loop,
		wait,
		ir.AssignRaw(ir.V(w), ir.Cast(ir.Idx(buf, ir.C(2, ir.U8)), ir.U16)),
		ir.If(ir.V(ready),
			ir.NewBlock(ir.AssignRaw(ir.V(out), ir.Cast(ir.Un(ir.OpNeg, ir.V(w)), ir.Int(16)))),
			ir.NewBlock(ir.AssignRaw(ir.V(out), ir.C(-1, ir.Int(16))))),
		ir.If(ir.Eq(ir.V(i), ir.C(4, ir.U8)), ir.NewBlock(&ir.ReturnStmt{}), nil),
		&ir.ExprStmt{Call: &ir.CallExpr{Name: "ext", Args: []ir.Expr{ir.V(out)}}},
		ir.NewBlock(ir.AssignRaw(ir.V(ready), ir.CBool(false))),
	)
	helper.Body.Add(&ir.ReturnStmt{Val: ir.Sel(ir.Lt(ir.V(x), ir.C(2, ir.U8)),
		ir.Un(ir.OpNot, ir.V(x)), ir.Shl(ir.V(x), ir.C(1, ir.U8)))})
	p.AddFunc(top)
	p.AddFunc(helper)
	return p
}

// TestRawFingerprintGolden pins ir.Fingerprint of untransformed programs
// — loops, calls, arrays and all — which is the source fingerprint every
// frontend and point cache entry is keyed by. The artifact golden in
// internal/core only covers transformed programs.
func TestRawFingerprintGolden(t *testing.T) {
	progs := []*ir.Program{everyKindProgram()}
	for _, n := range []int{4, 8, 16} {
		progs = append(progs, ild.Program(n), ild.NaturalProgram(n))
	}
	var lines []string
	for _, p := range progs {
		data, err := ir.EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		got, err := ir.DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if ir.Fingerprint(got) != ir.Fingerprint(p) {
			t.Fatalf("%s: fingerprint changed across codec round trip", p.Name)
		}
		lines = append(lines, fmt.Sprintf("%s %s", p.Name, ir.Fingerprint(p)))
	}
	golden := filepath.Join("testdata", "raw_fingerprints.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateRaw {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("raw program fingerprints drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
