package transform_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/transform"
)

// updatePropagation regenerates the propagation golden file:
//
//	go test ./internal/transform -run TestPropagationGolden -update
//
// Regenerate ONLY after an intentional change to what const-prop or
// copy-prop computes: a refactor must leave the file byte-identical.
var updatePropagation = flag.Bool("update", false, "rewrite the propagation golden file")

// TestPropagationGolden pins the output of const-prop and copy-prop, each
// run alone for three applications, on every corpus program and on the
// n=4 and n=8 ILD, both raw and after inline, unroll-full and speculate.
// Each application records its changed result (Rounds depends on it) and
// a hash of the printed program.
func TestPropagationGolden(t *testing.T) {
	type input struct {
		name string
		prog *ir.Program
	}
	var inputs []input
	names := make([]string, 0, len(samplePrograms))
	for name := range samplePrograms {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		inputs = append(inputs, input{name, parser.MustParse(name, samplePrograms[name])})
	}
	for _, n := range []int{4, 8} {
		inputs = append(inputs, input{fmt.Sprintf("ild%d", n), ild.Program(n)})
	}

	var b strings.Builder
	for _, in := range inputs {
		prepped := ir.CloneProgram(in.prog)
		for _, p := range []transform.Pass{transform.Inline(nil), transform.UnrollFull(nil, 0), transform.Speculate()} {
			if _, err := p.Run(prepped); err != nil {
				t.Fatalf("%s: %s: %v", in.name, p.Name(), err)
			}
		}
		for _, variant := range []struct {
			suffix string
			prog   *ir.Program
		}{{"", in.prog}, {"+prepped", prepped}} {
			for _, p := range []transform.Pass{transform.ConstProp(), transform.CopyProp()} {
				work := ir.CloneProgram(variant.prog)
				for round := 1; round <= 3; round++ {
					changed, err := p.Run(work)
					if err != nil {
						t.Fatalf("%s%s: %s: %v", in.name, variant.suffix, p.Name(), err)
					}
					fmt.Fprintf(&b, "%s%s %s %d %v %s\n", in.name, variant.suffix, p.Name(), round, changed, ir.HashText(ir.Print(work)))
				}
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "propagation.golden")
	if *updatePropagation {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("propagation output drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
