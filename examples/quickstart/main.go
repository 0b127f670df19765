// Quickstart: synthesize a small behavioral description end-to-end with
// the public sparkgo flow — parse, coordinated transformations,
// chaining-aware scheduling, RTL netlist, co-simulation, and VHDL output.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sparkgo/internal/core"
	"sparkgo/internal/parser"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// A tiny mixed control/data block: saturating absolute difference.
const source = `
uint8 a;
uint8 b;
uint8 out;
void main() {
  uint8 diff;
  if (a > b) {
    diff = a - b;
  } else {
    diff = b - a;
  }
  if (diff > 100) {
    diff = 100;
  }
  out = diff;
}
`

func main() {
	prog, err := parser.Parse("absdiff", source)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's regime: unlimited resources, chaining across
	// conditionals, single-cycle goal.
	res, err := core.Synthesize(prog, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("states: %d   critical path: %.1f gu   area: %.0f NAND-eq   muxes: %d\n",
		res.Cycles, res.Stats.CriticalPath, res.Stats.Area, res.Stats.Muxes)

	// Prove the hardware equals the behavioral semantics.
	if err := core.Verify(res, 100, 42); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: RTL == behavioral on 100 random vectors")

	// Drive the generated netlist directly, on a one-lane batch of the
	// compiled simulator: |200 - 13| = 187 -> saturates to 100.
	sim := rtlsim.Compile(res.Module).NewBatch(1)
	must(sim.SetScalar(0, "a", 200))
	must(sim.SetScalar(0, "b", 13))
	must(sim.Run(4))
	out, _ := sim.Scalar(0, "out")
	fmt.Printf("RTL sim: |200-13| saturated = %d (cycles: %d)\n", out, sim.Cycles(0))

	// Emit the first lines of the VHDL the paper's flow would hand to
	// logic synthesis.
	vhdl := rtl.EmitVHDL(res.Module)
	fmt.Printf("\n--- VHDL (first 400 bytes) ---\n%.400s...\n", vhdl)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
