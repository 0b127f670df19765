package transform_test

import (
	"fmt"
	"strings"
	"testing"

	"sparkgo/internal/ir"
	"sparkgo/internal/transform"
)

// TestPropagationGolden pins the output of const-prop and copy-prop, each
// run alone for three applications, on every corpus program and on the
// n=4 and n=8 ILD, both raw and after inline, unroll-full and speculate.
// Each application records its changed result (Rounds depends on it) and
// a hash of the printed program.
func TestPropagationGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range goldenInputs([]int{4, 8}, false) {
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
	checkGolden(t, "propagation.golden", b.String())
}
