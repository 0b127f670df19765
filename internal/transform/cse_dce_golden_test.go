package transform_test

import (
	"fmt"
	"strings"
	"testing"

	"sparkgo/internal/ir"
	"sparkgo/internal/pass"
	"sparkgo/internal/transform"
)

// TestCSEDCEGolden pins the output of CSE and DCE. Each preset plan runs
// on every golden input to a fixed point or the default round limit (a
// few inputs cycle between speculate and const-prop), and every CSE or
// DCE application in it records its changed result and a hash of the
// printed program. CSE and DCE also run alone for three applications on each raw
// input.
func TestCSEDCEGolden(t *testing.T) {
	plans := []struct {
		name  string
		specs []string
	}{
		{"micro", pass.MicroprocessorPlan(pass.Toggles{})},
		{"micro+normalize-while", pass.MicroprocessorPlan(pass.Toggles{NormalizeWhile: true})},
		{"classical", pass.ClassicalPlan(pass.Toggles{})},
		{"no-speculation", pass.MicroprocessorPlan(pass.Toggles{NoSpeculation: true})},
		{"no-unroll", pass.MicroprocessorPlan(pass.Toggles{NoUnroll: true})},
	}
	var b strings.Builder
	for _, in := range goldenInputs([]int{4, 8, 16}, true) {
		for _, plan := range plans {
			passes, err := pass.BuildAll(plan.specs)
			if err != nil {
				t.Fatal(err)
			}
			app := 0
			pl := &pass.Pipeline{Passes: passes, Observer: func(name string, changed bool, p *ir.Program) {
				if name != "cse" && name != "dce" {
					return
				}
				app++
				fmt.Fprintf(&b, "%s %s %d %s %v %s\n", in.name, plan.name, app, name, changed, ir.HashText(ir.Print(p)))
			}}
			if err := pl.Run(ir.CloneProgram(in.prog)); err != nil {
				t.Fatalf("%s: %s: %v", in.name, plan.name, err)
			}
		}
		for _, p := range []transform.Pass{transform.CSE(), transform.DCE()} {
			work := ir.CloneProgram(in.prog)
			for app := 1; app <= 3; app++ {
				changed, err := p.Run(work)
				if err != nil {
					t.Fatalf("%s: %s: %v", in.name, p.Name(), err)
				}
				fmt.Fprintf(&b, "%s alone %d %s %v %s\n", in.name, app, p.Name(), changed, ir.HashText(ir.Print(work)))
			}
		}
	}
	checkGolden(t, "cse_dce.golden", b.String())
}
