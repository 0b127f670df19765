// Package sparkgo's root benchmark harness regenerates every figure-level
// result of the paper (DESIGN.md §4). Each benchmark wraps one experiment
// from internal/experiments: the table is printed once (so `go test
// -bench=. -benchmem | tee bench_output.txt` records the reproduced
// figures) and the measured loop times the full experiment pipeline —
// parse, transform, schedule, build RTL, and co-simulate.
//
//	BenchmarkFig02_Unroll              E1   loop unrolling (Fig 2)
//	BenchmarkFig03_ConstPropParallel   E2   index elimination (Fig 3)
//	BenchmarkFig04_ChainAcrossCond     E3   chaining across conditionals
//	BenchmarkFig05_ChainingTrails      E4   trail enumeration (Fig 5)
//	BenchmarkFig06_07_WireVariables    E5-6 wire-variable insertion
//	BenchmarkFig10_ILDBehavior         E7   behavioral ILD vs reference
//	BenchmarkFig11_14_ILDStages        E8-11 transformation walkthrough
//	BenchmarkFig15_SingleCycleILD      E12  the single-cycle architecture
//	BenchmarkBaseline_ClassicalHLS     E13  classical-HLS baseline
//	BenchmarkFig16_NaturalForm         E14  while→for normalization
//	BenchmarkAblation_*                A1-A4 coordination ablations
//	BenchmarkExploration               E15  full design-space sweep
//	BenchmarkSynthesizeILD/n=*         end-to-end synthesis timing sweep
//	BenchmarkFrontendILD/n=*           the frontend's fixpoint on the ILD
//	BenchmarkFrontendDepth/*           frontend scaling with program depth
//	BenchmarkSynthesizeDepth/*         full-flow scaling with program depth
//	BenchmarkRTLSimILD                 simulated decode throughput
//	BenchmarkInterpILD                 behavioral decode throughput
package sparkgo_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/experiments"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/parser"
	"sparkgo/internal/report"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// printOnce prints each experiment table a single time per process, so
// benchmark reruns don't flood the log.
var printedTables sync.Map

func emit(b *testing.B, name string, t *report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatalf("%s: %v\n%s", name, err, tableString(t))
	}
	if _, loaded := printedTables.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", t)
	}
}

func tableString(t *report.Table) string {
	if t == nil {
		return ""
	}
	return t.String()
}

func BenchmarkFig02_Unroll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E1Fig02Unroll()
		emit(b, "E1", t, err)
	}
}

func BenchmarkFig03_ConstPropParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E2Fig03ConstPropParallel()
		emit(b, "E2", t, err)
	}
}

func BenchmarkFig04_ChainAcrossCond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E3Fig04Chaining()
		emit(b, "E3", t, err)
	}
}

func BenchmarkFig05_ChainingTrails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E4Fig05Trails()
		emit(b, "E4", t, err)
	}
}

func BenchmarkFig06_07_WireVariables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E5E6WireVariables()
		emit(b, "E5-E6", t, err)
	}
}

func BenchmarkFig10_ILDBehavior(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E7Fig10Behavior(20)
		emit(b, "E7", t, err)
	}
}

func BenchmarkFig11_14_ILDStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E8toE11Stages(16)
		emit(b, "E8-E11", t, err)
	}
}

func BenchmarkFig15_SingleCycleILD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E12Fig15SingleCycle([]int{4, 8, 16, 32}, 8)
		emit(b, "E12", t, err)
	}
}

func BenchmarkBaseline_ClassicalHLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E13Baseline([]int{4, 8, 16})
		emit(b, "E13", t, err)
	}
}

func BenchmarkFig16_NaturalForm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E14Fig16Natural(8)
		emit(b, "E14", t, err)
	}
}

func BenchmarkAblation_Coordination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Ablations(16)
		emit(b, "A1-A4", t, err)
	}
}

// BenchmarkExploration wraps the E15 design-space sweep.
func BenchmarkExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E15Exploration(0)
		emit(b, "E15", t, err)
	}
}

// BenchmarkSynthesizeILD times the full coordinated flow per buffer size:
// the "design space exploration speed" the paper positions Spark for.
func BenchmarkSynthesizeILD(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := ild.Program(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
				if err != nil {
					b.Fatal(err)
				}
				if res.Cycles != 1 {
					b.Fatalf("n=%d: %d cycles", n, res.Cycles)
				}
			}
		})
	}
}

// BenchmarkFrontendILD times the frontend alone (core.Frontend: the pass
// fixpoint, without scheduling or RTL) on the ILD under the
// microprocessor preset. Run with -benchmem.
func BenchmarkFrontendILD(b *testing.B) {
	fo := core.Options{Preset: core.MicroprocessorBlock}.FrontendOptions()
	for _, n := range []int{16, 32, 64} {
		p := ild.Program(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				if _, err := core.Frontend(p, fo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontendDepth times the frontend on a chain of n distinct
// temporaries, tI = tI-1 ^ b, with a guarded accumulation
// if (tI > c) { u = u + tI; } every 8 statements, under both presets.
// The frontend's fact tables are scoped, not copied per branch, so the
// time should about double with n.
func BenchmarkFrontendDepth(b *testing.B) {
	for _, preset := range []core.Preset{core.MicroprocessorBlock, core.ClassicalASIC} {
		fo := core.Options{Preset: preset}.FrontendOptions()
		for _, n := range []int{1000, 2000, 4000} {
			p := parser.MustParse("depth", depthSource(n))
			b.Run(fmt.Sprintf("%s/n=%d", preset, n), func(b *testing.B) {
				for b.Loop() {
					if _, err := core.Frontend(p, fo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSynthesizeDepth times full synthesis of BenchmarkFrontendDepth's
// program under both presets. The midend's per-op and per-edge work is
// constant, but under both presets no guarded write of u kills another,
// so each reaches every later access of u: the dependence edge count,
// and with it the time, grows faster than n.
func BenchmarkSynthesizeDepth(b *testing.B) {
	for _, preset := range []core.Preset{core.MicroprocessorBlock, core.ClassicalASIC} {
		opt := core.Options{Preset: preset}
		for _, n := range []int{1000, 2000, 4000} {
			p := parser.MustParse("depth", depthSource(n))
			b.Run(fmt.Sprintf("%s/n=%d", preset, n), func(b *testing.B) {
				for b.Loop() {
					if _, err := core.Synthesize(p, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// depthSource renders BenchmarkFrontendDepth's program for n temporaries.
func depthSource(n int) string {
	var s strings.Builder
	s.WriteString("uint8 b;\nuint8 c;\nuint8 u;\nvoid main() {\n")
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&s, "  uint8 t%d;\n", i)
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&s, "  t%d = t%d ^ b;\n", i, i-1)
		if i%8 == 0 {
			fmt.Fprintf(&s, "  if (t%d > c) {\n    u = u + t%d;\n  }\n", i, i)
		}
	}
	s.WriteString("}\n")
	return s.String()
}

// BenchmarkMidendAllocs pins the allocation count of the midend builders
// — HTG lowering plus the RTL signal web — which carve their nodes from
// fixed-size arenas instead of allocating per op/signal. Run with
// -benchmem; the allocs/op figure is the regression guard for the arena
// paths in internal/htg/lower.go and internal/rtl/netlist.go.
func BenchmarkMidendAllocs(b *testing.B) {
	p := ild.Program(32)
	opt := core.Options{Preset: core.ClassicalASIC}
	fa, err := core.Frontend(p, opt.FrontendOptions())
	if err != nil {
		b.Fatal(err)
	}
	mo := opt.MidendOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma, err := core.Midend(fa, mo)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rtl.Build(ma.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTLSimILD measures cycle-accurate simulation throughput of the
// synthesized single-cycle decoder.
func BenchmarkRTLSimILD(b *testing.B) {
	n := 16
	p := ild.Program(n)
	res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := ild.RandomBuffer(rng, n)
	vals := make([]int64, len(buf))
	for i, x := range buf {
		vals[i] = int64(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := rtlsim.New(res.Module)
		if err := sim.SetArray("B", vals); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpILD measures behavioral (golden model) decode throughput
// for comparison with the RTL simulation.
func BenchmarkInterpILD(b *testing.B) {
	n := 16
	p := ild.Program(n)
	rng := rand.New(rand.NewSource(1))
	buf := ild.RandomBuffer(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := interp.NewEnv(p)
		if err := ild.LoadBuffer(p, env, buf); err != nil {
			b.Fatal(err)
		}
		if _, err := interp.New(p).RunMain(env); err != nil {
			b.Fatal(err)
		}
	}
}
