package testutil_test

import (
	"fmt"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/parser"
	"sparkgo/internal/testutil"
)

// TestDifferentialILD runs the differential harness on the synthesized
// single-cycle ILD across buffer sizes: 30 seeded random buffers per size
// (120 total) through interp (golden model) and rtlsim must decode
// identically.
func TestDifferentialILD(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			p := ild.Program(n)
			res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != 1 {
				t.Fatalf("expected single-cycle module, got %d states", res.Cycles)
			}
			if err := testutil.DifferentialILD(res.Input, res.Module, n, 30, int64(1000+n)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialILDBaseline runs the same harness on the classical-ASIC
// baseline (a multi-cycle loop FSM), so the differential check covers
// both synthesis regimes, not just the single-cycle architecture.
func TestDifferentialILDBaseline(t *testing.T) {
	n := 8
	p := ild.Program(n)
	res, err := core.Synthesize(p, core.Options{Preset: core.ClassicalASIC})
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.DifferentialILD(res.Input, res.Module, n, 10, 42); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialILDNatural covers the Fig 16 natural (while-form)
// description through the normalize-while pass.
func TestDifferentialILDNatural(t *testing.T) {
	n := 8
	p := ild.NaturalProgram(n)
	res, err := core.Synthesize(p, core.Options{
		Preset: core.MicroprocessorBlock, NormalizeWhile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.DifferentialILD(res.Input, res.Module, n, 10, 7); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialILDRejects pins the harness's failures: a Mark port
// shorter than the program's Mark array, and a module synthesized from a
// mutant that marks every byte as an instruction start.
func TestDifferentialILDRejects(t *testing.T) {
	synth := func(src string) *core.Result {
		t.Helper()
		res, err := core.Synthesize(parser.MustParse("ild4", src), core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := synth(ild.SourceFig10(4))
	res.Module.ArrayPort["Mark"] = res.Module.ArrayPort["Mark"][:3]
	err := testutil.DifferentialILD(res.Input, res.Module, 4, 10, 1)
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("short Mark port: DifferentialILD = %v, want a length mismatch", err)
	}

	mutant := strings.Replace(ild.SourceFig10(4),
		"NextStartByte = NextStartByte + l;", "NextStartByte = NextStartByte + 1;", 1)
	err = testutil.DifferentialILD(ild.Program(4), synth(mutant).Module, 4, 10, 1)
	if err == nil || !strings.Contains(err.Error(), "rtlsim vs interp") {
		t.Errorf("mutant module: DifferentialILD = %v, want an rtlsim vs interp mismatch", err)
	}
}
