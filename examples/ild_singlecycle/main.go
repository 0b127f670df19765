// The paper's case study end-to-end (§5–6): the instruction length
// decoder, from the natural behavioral description of Fig 10 to the
// maximally-parallel single-cycle architecture of Fig 15(b), with each
// coordinated transformation's effect narrated and the final RTL
// co-simulated against the reference software decoder.
//
//	go run ./examples/ild_singlecycle [-n 16]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"sparkgo/internal/bind"
	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/report"
	"sparkgo/internal/rtlsim"
)

func main() {
	n := flag.Int("n", 16, "instruction buffer size in bytes")
	flag.Parse()

	fmt.Printf("=== ILD case study, n = %d (paper Figs 10-15) ===\n\n", *n)
	prog := ild.Program(*n)

	res, err := core.Synthesize(prog, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		log.Fatal(err)
	}

	t := report.New("coordinated transformations (paper §6)",
		"pass", "stmts", "ops", "ifs", "loops", "calls")
	last := map[string]bool{}
	for _, st := range res.Stages {
		if !st.Changed && last[st.Pass] {
			continue // only show passes that did something (first round)
		}
		last[st.Pass] = true
		t.Add(st.Pass, st.Stmts, st.Ops, st.Ifs, st.Loops, st.Calls)
	}
	fmt.Println(t)

	br := bind.Summarize(res.Schedule.Plan)
	t2 := report.New("final architecture (paper Fig 15b)", "metric", "value")
	t2.Add("FSM states (cycles)", res.Cycles)
	t2.Add("critical path (gate units)", res.Stats.CriticalPath)
	t2.Add("functional units", res.Stats.FUs)
	t2.Add("steering muxes", res.Stats.Muxes)
	t2.Add("wire-variables (§3.1.2)", br.WireVars)
	t2.Add("area (NAND equivalents)", res.Stats.Area)
	fmt.Println(t2)

	// Decode a random instruction stream on the synthesized hardware and
	// compare with the reference decoder.
	rng := rand.New(rand.NewSource(2026))
	buf, starts := ild.RandomInstructions(rng, *n)
	sim := rtlsim.Compile(res.Module).NewBatch(1)
	vals := make([]int64, len(buf))
	for i, b := range buf {
		vals[i] = int64(b)
	}
	if err := sim.SetArray(0, "B", vals); err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(4); err != nil {
		log.Fatal(err)
	}
	marks, _ := sim.Array(0, "Mark")
	wantMarks, _ := ild.Decode(buf, *n)

	fmt.Println("buffer bytes :", buf[:*n])
	fmt.Println("known starts :", starts)
	fmt.Print("RTL marks    : ")
	for i := 0; i < *n; i++ {
		if marks[i] != 0 {
			fmt.Printf("%d ", i)
		}
	}
	fmt.Println()
	for i := 0; i < *n; i++ {
		want := int64(0)
		if wantMarks[i] {
			want = 1
		}
		if marks[i] != want {
			log.Fatalf("MISMATCH at byte %d: rtl=%d want=%d", i, marks[i], want)
		}
	}
	fmt.Printf("\ndecoded the whole %d-byte buffer in %d clock cycle(s); "+
		"marks match the reference decoder\n", *n, sim.Cycles(0))
}
