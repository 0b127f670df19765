package transform_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
)

// updateGolden regenerates the golden files of this package:
//
//	go test ./internal/transform -run 'Golden$' -update
//
// Regenerate ONLY after an intentional change to what a pinned pass
// computes: a refactor must leave every file byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// goldenInput is one program a golden test runs passes on.
type goldenInput struct {
	name string
	prog *ir.Program
}

// goldenInputs returns every corpus program in name order, then the Fig 10
// ILD at each size and, when natural is set, the Fig 16 ILD at each size.
func goldenInputs(sizes []int, natural bool) []goldenInput {
	names := make([]string, 0, len(samplePrograms))
	for name := range samplePrograms {
		names = append(names, name)
	}
	slices.Sort(names)
	var inputs []goldenInput
	for _, name := range names {
		inputs = append(inputs, goldenInput{name, parser.MustParse(name, samplePrograms[name])})
	}
	for _, n := range sizes {
		inputs = append(inputs, goldenInput{fmt.Sprintf("ild%d", n), ild.Program(n)})
	}
	if natural {
		for _, n := range sizes {
			inputs = append(inputs, goldenInput{fmt.Sprintf("ild%d-natural", n), ild.NaturalProgram(n)})
		}
	}
	return inputs
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
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
		t.Errorf("output drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
