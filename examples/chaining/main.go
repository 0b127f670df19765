// Chaining across conditional boundaries (paper §3.1, Figs 4-7): this
// example synthesizes the paper's exact Fig 4 listing, shows the trails
// the chaining heuristic validates, and contrasts the chained single-cycle
// schedule against the no-chaining ablation where every dependence level
// costs a cycle.
//
//	go run ./examples/chaining
package main

import (
	"fmt"
	"log"

	"sparkgo/internal/bind"
	"sparkgo/internal/core"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/report"
	"sparkgo/internal/transform"
)

// Paper Fig 4(a), verbatim structure.
const fig4 = `
uint8 a;
uint8 b;
uint8 c;
uint8 d;
uint8 e;
bool cond;
uint8 f;
void main() {
  uint8 t1;
  uint8 t2;
  uint8 t3;
  t1 = a + b;
  if (cond) {
    t2 = t1;
    t3 = c + d;
  } else {
    t2 = e;
    t3 = c - d;
  }
  f = t2 + t3;
}
`

func main() {
	fmt.Println("=== Paper Fig 4: chaining operations across a conditional ===")
	fmt.Print(fig4)

	// Show the chaining trails (paper §3.1.1): lower to an HTG and
	// enumerate the control paths reaching the final addition.
	prog := parser.MustParse("fig4", fig4)
	lowered := ir.CloneProgram(prog)
	if _, err := transform.Inline(nil).Run(lowered); err != nil {
		log.Fatal(err)
	}
	g, err := htg.Lower(lowered, lowered.Main())
	if err != nil {
		log.Fatal(err)
	}
	var target *htg.BasicBlock
	for _, bb := range g.Blocks {
		for _, op := range bb.Ops {
			if w := op.Writes(); w != nil && w.Name == "f" {
				target = bb
			}
		}
	}
	trails := g.Trails(target)
	fmt.Printf("chaining trails to the block of 'f = t2 + t3': %d\n", len(trails))
	for i, tr := range trails {
		fmt.Printf("  trail %d: ", i+1)
		for j, bb := range tr {
			if j > 0 {
				fmt.Print(" -> ")
			}
			fmt.Print(bb)
		}
		fmt.Println()
	}
	fmt.Println()

	// Chained vs no-chaining schedules.
	t := report.New("chaining vs one-dependence-level-per-cycle",
		"configuration", "cycles", "crit path (gu)", "muxes", "wire vars")
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"chained (paper §3.1)", core.Options{Preset: core.MicroprocessorBlock}},
		{"no chaining (ablation A4)", core.Options{NoChaining: true}},
	} {
		res, err := core.Synthesize(prog, cfg.opt)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.Verify(res, 60, 4); err != nil {
			log.Fatalf("%s: %v", cfg.name, err)
		}
		br := bind.Summarize(res.Schedule.Plan)
		t.Add(cfg.name, res.Cycles, res.Stats.CriticalPath, res.Stats.Muxes, br.WireVars)
	}
	fmt.Println(t)
	fmt.Println("both configurations verified against the behavioral model")
}
