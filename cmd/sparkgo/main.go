// Command sparkgo is the synthesis driver: it reads a behavioral C
// description, applies the coordinated transformations, schedules, and
// emits RTL — the end-to-end flow of the Spark system (paper §4).
//
// Usage:
//
//	sparkgo [flags] design.c
//
//	-preset micro|classical   synthesis regime (default micro)
//	-script file              synthesis script (overrides the preset's
//	                          transformation pipeline; see package script)
//	-clock N                  clock period in gate units (0 = unconstrained)
//	-o dir                    output directory (default .)
//	-vhdl / -verilog          emit RTL (default both)
//	-verify N                 co-simulate N random vectors (default 20)
//	-stages                   print per-pass stage metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sparkgo/internal/bind"
	"sparkgo/internal/core"
	"sparkgo/internal/delay"
	"sparkgo/internal/parser"
	"sparkgo/internal/report"
	"sparkgo/internal/rtl"
	"sparkgo/internal/script"
)

func main() {
	presetFlag := flag.String("preset", "micro", "synthesis preset: micro or classical")
	scriptFlag := flag.String("script", "", "synthesis script file")
	clockFlag := flag.Float64("clock", 0, "clock period in gate units (0 = unconstrained)")
	outFlag := flag.String("o", ".", "output directory")
	vhdlFlag := flag.Bool("vhdl", true, "emit VHDL")
	verilogFlag := flag.Bool("verilog", true, "emit Verilog")
	verifyFlag := flag.Int("verify", 20, "random co-simulation vectors (0 = skip)")
	stagesFlag := flag.Bool("stages", false, "print per-pass stage metrics")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sparkgo [flags] design.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	srcPath := flag.Arg(0)
	src, err := os.ReadFile(srcPath)
	if err != nil {
		fail(err)
	}
	name := strings.TrimSuffix(filepath.Base(srcPath), filepath.Ext(srcPath))
	prog, err := parser.Parse(name, string(src))
	if err != nil {
		fail(fmt.Errorf("%s: %w", srcPath, err))
	}

	opt := core.Options{}
	switch *presetFlag {
	case "micro", "microprocessor":
		opt.Preset = core.MicroprocessorBlock
	case "classical", "asic":
		opt.Preset = core.ClassicalASIC
	default:
		fail(fmt.Errorf("unknown preset %q", *presetFlag))
	}
	if *scriptFlag != "" {
		text, err := os.ReadFile(*scriptFlag)
		if err != nil {
			fail(err)
		}
		sc, err := script.Parse(string(text))
		if err != nil {
			fail(err)
		}
		opt = core.FromScript(sc)
	}
	if *clockFlag > 0 {
		opt.Model = delay.Default().WithClock(*clockFlag)
	}

	res, err := core.Synthesize(prog, opt)
	if err != nil {
		fail(err)
	}

	if *stagesFlag {
		t := report.New("transformation stages", "pass", "changed", "stmts", "ops", "ifs", "loops", "calls")
		for _, st := range res.Stages {
			t.Add(st.Pass, st.Changed, st.Stmts, st.Ops, st.Ifs, st.Loops, st.Calls)
		}
		fmt.Println(t)
	}

	t := report.New("synthesis result", "metric", "value")
	t.Add("preset", res.Preset)
	t.Add("FSM states", res.Cycles)
	t.Add("critical path (gu)", res.Stats.CriticalPath)
	t.Add("area (NAND eq)", res.Stats.Area)
	t.Add("functional units", res.Stats.FUs)
	t.Add("muxes", res.Stats.Muxes)
	t.Add("registers", res.Stats.Registers)
	br := bind.Summarize(res.Schedule.Plan)
	t.Add("wire-variables", br.WireVars)
	t.Add("register variables", br.RegisterVars)
	t.Add("shared registers (left-edge)", br.SharedRegs)
	if res.Schedule.ClockViolations > 0 {
		t.Add("CLOCK VIOLATIONS", res.Schedule.ClockViolations)
	}
	fmt.Println(t)

	if *verifyFlag > 0 {
		if err := core.Verify(res, *verifyFlag, 1); err != nil {
			fail(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Printf("verified: RTL == behavioral on %d random vectors\n\n", *verifyFlag)
	}

	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		fail(err)
	}
	if *vhdlFlag {
		path := filepath.Join(*outFlag, name+".vhd")
		if err := os.WriteFile(path, []byte(rtl.EmitVHDL(res.Module)), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
	}
	if *verilogFlag {
		path := filepath.Join(*outFlag, name+".v")
		if err := os.WriteFile(path, []byte(rtl.EmitVerilog(res.Module)), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sparkgo:", err)
	os.Exit(1)
}
