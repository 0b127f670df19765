package sched_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/delay"
	"sparkgo/internal/htg"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/sched"
)

// update regenerates testdata/schedules.golden:
//
//	go test ./internal/sched -run TestScheduleGolden -update
var update = flag.Bool("update", false, "rewrite testdata/schedules.golden")

// goldenDesigns lowers the designs the schedule golden pins: ILD 4 and
// 8 through both presets' frontends, the natural-form ILD 8, and the
// diamond.
func goldenDesigns(t *testing.T) (names []string, graphs []*htg.Graph) {
	t.Helper()
	add := func(name string, prog *ir.Program, opt core.Options) {
		fa, err := core.Frontend(prog, opt.FrontendOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := htg.Lower(fa.Program, fa.Program.Main())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, graphs = append(names, name), append(graphs, g)
	}
	for _, n := range []int{4, 8} {
		add(fmt.Sprintf("ild%d-micro", n), ild.Program(n), core.Options{Preset: core.MicroprocessorBlock})
		add(fmt.Sprintf("ild%d-classical", n), ild.Program(n), core.Options{Preset: core.ClassicalASIC})
	}
	add("ild8-natural", ild.NaturalProgram(8), core.Options{Preset: core.MicroprocessorBlock, NormalizeWhile: true})
	names, graphs = append(names, "diamond"), append(graphs, prepare(t, diamondSrc))
	return names, graphs
}

// oneALU limits only the ALU class, to a single unit.
func oneALU() sched.Resources {
	r := sched.Resources{Counts: map[sched.Class]int{}}
	for c := sched.ClassALU; c < sched.ClassFree; c++ {
		r.Counts[c] = 1 << 20
	}
	r.Counts[sched.ClassALU] = 1
	return r
}

// planHash digests what a schedule decides: each state's ops, the live
// FSM edges in order, the register/wire split by variable name and the
// re-entrant states.
func planHash(res *sched.Result) string {
	var b strings.Builder
	for s, list := range res.OpOrder {
		fmt.Fprintf(&b, "s%d:", s)
		for _, op := range list {
			fmt.Fprintf(&b, " %d", op.ID)
		}
		b.WriteByte('\n')
	}
	for _, tr := range res.Transitions {
		if tr.From < 0 {
			continue
		}
		cond := "-"
		if tr.Cond != nil {
			cond = tr.Cond.Name
		}
		fmt.Fprintf(&b, "t %d %s %t %d\n", tr.From, cond, tr.CondValue, tr.To)
	}
	var classes []string
	for v, cls := range res.VarClass {
		classes = append(classes, fmt.Sprintf("v %s %d\n", v.Name, cls))
	}
	slices.Sort(classes)
	b.WriteString(strings.Join(classes, ""))
	var reentrant []int
	for s, on := range res.ReentrantStates {
		if on {
			reentrant = append(reentrant, s)
		}
	}
	slices.Sort(reentrant)
	fmt.Fprintf(&b, "r %v\n", reentrant)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// timingHash digests what a schedule reports: each op's state, arrival
// and finish, and every state's critical path.
func timingHash(g *htg.Graph, res *sched.Result) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	for _, op := range g.AllOps() {
		fmt.Fprintf(&b, "%d %d %s %s\n", op.ID, res.OpState[op.ID], f(res.Arrival[op.ID]), f(res.Finish[op.ID]))
	}
	for _, c := range res.StateCritPath {
		fmt.Fprintf(&b, "c %s\n", f(c))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// TestScheduleGolden pins every schedule both regimes produce for a
// grid of designs, resource sets, clocks and chaining settings: the
// plan, the timing report and the clock-violation count.
func TestScheduleGolden(t *testing.T) {
	names, graphs := goldenDesigns(t)
	resources := []struct {
		name string
		r    sched.Resources
	}{{"unlimited", sched.Unlimited()}, {"classical", sched.Classical()}, {"1alu", oneALU()}}

	var lines []string
	for i, g := range graphs {
		for _, mode := range []sched.Mode{sched.ModeChain, sched.ModeSequential} {
			for _, rs := range resources {
				for _, clock := range []float64{0, 10, 30} {
					for _, noChain := range []bool{false, true} {
						cfg := sched.DefaultConfig()
						cfg.Mode, cfg.Resources, cfg.DisableChaining = mode, rs.r, noChain
						cfg.Model = delay.Default().WithClock(clock)
						line := fmt.Sprintf("%s %s %s clock=%g nochain=%t", names[i], mode, rs.name, clock, noChain)
						res, err := sched.Schedule(g, cfg)
						if err != nil {
							line += " error"
						} else {
							line += fmt.Sprintf(" plan=%s timing=%s violations=%d",
								planHash(res), timingHash(g, res), res.ClockViolations)
						}
						lines = append(lines, line)
					}
				}
			}
		}
	}

	golden := filepath.Join("testdata", "schedules.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d rows, want %d", golden, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("schedule drifted from %s:\ngot:  %s\nwant: %s", golden, gotLines[i], wantLines[i])
		}
	}
}

// TestClockViolationsCountPlacedOps pins what ClockViolations counts:
// the placed ops that miss the clock period even at state start, each
// once — not once per retry a resource limit forces.
func TestClockViolationsCountPlacedOps(t *testing.T) {
	names, graphs := goldenDesigns(t)
	for i, g := range graphs {
		for _, mode := range []sched.Mode{sched.ModeChain, sched.ModeSequential} {
			for _, r := range []sched.Resources{sched.Unlimited(), sched.Classical(), oneALU()} {
				for _, clock := range []float64{10, 30} {
					cfg := sched.DefaultConfig()
					cfg.Mode, cfg.Resources = mode, r
					cfg.Model = delay.Default().WithClock(clock)
					res, err := sched.Schedule(g, cfg)
					if err != nil {
						continue // chain mode rejects the looped designs
					}
					want := 0
					for _, op := range g.AllOps() {
						if res.Arrival[op.ID] == 0 && res.Finish[op.ID]+cfg.Model.RegisterSetup() > clock {
							want++
						}
					}
					if res.ClockViolations != want {
						t.Errorf("%s %s clock=%g: %d clock violations, want %d (placed ops over the period)",
							names[i], mode, clock, res.ClockViolations, want)
					}
				}
			}
		}
	}
}
