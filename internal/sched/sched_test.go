package sched_test

import (
	"testing"

	"sparkgo/internal/delay"
	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/pass"
	"sparkgo/internal/sched"
	"sparkgo/internal/transform"
)

func prepare(t testing.TB, src string) *htg.Graph {
	t.Helper()
	p := parser.MustParse("t", src)
	pl := &pass.Pipeline{Passes: []transform.Pass{
		transform.Inline(nil), transform.DropUncalledFuncs(),
	}, MaxRounds: 1}
	if err := pl.Run(p); err != nil {
		t.Fatal(err)
	}
	g, err := htg.Lower(p, p.Main())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const diamondSrc = `
uint8 a;
uint8 b;
uint8 c;
uint8 out;
void main() {
  uint8 t1;
  uint8 t2;
  t1 = a + b;
  t2 = a - c;
  out = t1 * t2;
}
`

func TestChainUnlimitedSingleCycle(t *testing.T) {
	g := prepare(t, diamondSrc)
	res, err := sched.Schedule(g, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates != 1 {
		t.Errorf("states = %d, want 1", res.NumStates)
	}
	// Dependences must hold: within the single cycle, arrival of the
	// multiply must be after the adds' finishes.
	for _, op := range g.AllOps() {
		if op.Kind == htg.OpBin && op.Bin == ir.OpMul {
			if res.Arrival[op.ID] <= 0 {
				t.Error("multiply should chain after its operands")
			}
		}
	}
}

func TestChainRespectsClockPeriod(t *testing.T) {
	g := prepare(t, diamondSrc)
	cfg := sched.DefaultConfig()
	// Just enough for one 8-bit add (2*3+4 = 10) + setup (2): the chain
	// add→mul cannot fit, forcing multiple cycles.
	cfg.Model = delay.Default().WithClock(13)
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates < 2 {
		t.Errorf("states = %d, want >= 2 under a tight clock", res.NumStates)
	}
	// The multiply alone (6*3+8 = 26) exceeds 13gu: it must be
	// reported as a violation.
	if res.ClockViolations < 1 {
		t.Errorf("clock violations = %d, want >= 1 for the 26gu multiply", res.ClockViolations)
	}
	// Every flow dependence must cross states or chain within one.
	for _, e := range flowEdges(g) {
		if res.OpState[e.from.ID] > res.OpState[e.to.ID] {
			t.Errorf("dependence violated: %s (state %d) before %s (state %d)",
				e.from, res.OpState[e.from.ID], e.to, res.OpState[e.to.ID])
		}
	}
}

type edge struct{ from, to *htg.Op }

// flowEdges lists the dependence edges the scheduler builds for g.
func flowEdges(g *htg.Graph) []edge {
	var out []edge
	deps := dfa.Build(g.AllOps())
	for _, op := range deps.Ops {
		for _, e := range deps.Preds[op.ID] {
			out = append(out, edge{deps.ByID[e.From], op})
		}
	}
	return out
}

func TestDisableChainingOneLevelPerCycle(t *testing.T) {
	g := prepare(t, diamondSrc)
	cfg := sched.DefaultConfig()
	cfg.DisableChaining = true
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates < 2 {
		t.Errorf("states = %d, want >= 2 without chaining", res.NumStates)
	}
	// No op may have a same-cycle value predecessor.
	for _, op := range g.AllOps() {
		if res.Arrival[op.ID] != 0 {
			t.Errorf("op %s has nonzero arrival with chaining disabled", op)
		}
	}
}

func TestResourceConstrainedALU(t *testing.T) {
	// Four independent adds, one ALU: at least 4 cycles in sequential
	// mode... in chain mode with 1 ALU they serialize too (one add per
	// cycle), since chained ALU reuse within a cycle is not modeled.
	g := prepare(t, `
uint8 a;
uint8 b;
uint8 o1;
uint8 o2;
uint8 o3;
uint8 o4;
void main() {
  o1 = a + b;
  o2 = a + 1;
  o3 = b + 2;
  o4 = a + 3;
}
`)
	cfg := sched.DefaultConfig()
	cfg.Resources = sched.Resources{Counts: map[sched.Class]int{sched.ClassALU: 1}}
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates < 4 {
		t.Errorf("states = %d, want >= 4 with one ALU", res.NumStates)
	}
	// Per cycle, at most one ALU op.
	for s := 0; s < res.NumStates; s++ {
		n := 0
		for _, op := range res.OpOrder[s] {
			if sched.ClassOf(op) == sched.ClassALU {
				n++
			}
		}
		if n > 1 {
			t.Errorf("state %d uses %d ALUs, budget 1", s, n)
		}
	}
}

func TestExclusiveBranchesShareResource(t *testing.T) {
	// Paper §2: mutually exclusive operations can share a resource in
	// the same cycle. Two adds in opposite branches + one ALU must still
	// allow a compact schedule (chain mode packs them in one cycle).
	g := prepare(t, `
uint8 a;
uint8 b;
bool c;
uint8 out;
void main() {
  if (c) {
    out = a + b;
  } else {
    out = a + 1;
  }
}
`)
	cfg := sched.DefaultConfig()
	cfg.Resources = sched.Resources{Counts: map[sched.Class]int{
		sched.ClassALU: 1, sched.ClassCmp: 1, sched.ClassLogic: 1}}
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates != 1 {
		t.Errorf("states = %d, want 1 (exclusive adds share the ALU)", res.NumStates)
	}
}

func TestSequentialModeLoopFSM(t *testing.T) {
	g := prepare(t, `
uint8 data[4];
uint16 sum;
void main() {
  uint8 i;
  for (i = 0; i < 4; i++) {
    sum += data[i];
  }
}
`)
	cfg := sched.DefaultConfig()
	cfg.Mode = sched.ModeSequential
	cfg.Resources = sched.Classical()
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates < 2 {
		t.Fatalf("states = %d, want >= 2 for a loop FSM", res.NumStates)
	}
	// There must be a backward transition (the loop edge).
	hasBack := false
	for _, tr := range res.Transitions {
		if tr.From >= 0 && tr.To >= 0 && tr.To <= tr.From {
			hasBack = true
		}
	}
	if !hasBack {
		t.Error("no back edge in loop FSM")
	}
	// Loop states must be marked re-entrant.
	if len(res.ReentrantStates) == 0 {
		t.Error("no re-entrant states recorded")
	}
}

func TestChainModeRejectsLoops(t *testing.T) {
	g := prepare(t, `
uint8 x;
void main() {
  uint8 i;
  for (i = 0; i < 4; i++) {
    x += 1;
  }
}
`)
	_, err := sched.Schedule(g, sched.DefaultConfig())
	if err == nil {
		t.Error("chain mode must reject loops")
	}
}

func TestWireRegisterClassification(t *testing.T) {
	g := prepare(t, diamondSrc)
	res, err := sched.Schedule(g, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Single cycle: every local intermediate is a wire; globals are
	// registers.
	for v, cls := range res.VarClass {
		if v.IsGlobal && cls != sched.Register {
			t.Errorf("global %s classified as wire", v.Name)
		}
		if !v.IsGlobal && cls != sched.Wire {
			t.Errorf("local %s classified as register in a single-cycle design", v.Name)
		}
	}
}

func TestMultiCycleRegisters(t *testing.T) {
	g := prepare(t, diamondSrc)
	cfg := sched.DefaultConfig()
	cfg.DisableChaining = true
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// t1/t2 cross the cycle boundary into the multiply: registers.
	regs := 0
	for v, cls := range res.VarClass {
		if !v.IsGlobal && cls == sched.Register {
			regs++
		}
	}
	if regs == 0 {
		t.Error("no local registers in a multi-cycle schedule")
	}
}

func TestClassOfCoverage(t *testing.T) {
	mk := func(op ir.BinOp) *htg.Op {
		return &htg.Op{Kind: htg.OpBin, Bin: op}
	}
	cases := map[ir.BinOp]sched.Class{
		ir.OpAdd: sched.ClassALU, ir.OpMul: sched.ClassMul,
		ir.OpDiv: sched.ClassDiv, ir.OpAnd: sched.ClassLogic,
		ir.OpShl: sched.ClassShift, ir.OpLt: sched.ClassCmp,
	}
	for op, want := range cases {
		if got := sched.ClassOf(mk(op)); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
	if sched.ClassOf(&htg.Op{Kind: htg.OpCopy}) != sched.ClassFree {
		t.Error("copies must be free")
	}
	if sched.ClassOf(&htg.Op{Kind: htg.OpLoad}) != sched.ClassMem {
		t.Error("loads use memory ports")
	}
}

func TestClassWithoutUnitsFails(t *testing.T) {
	// The diamond's multiply has no unit when only an ALU is allocated:
	// neither regime can ever place it, and both must say so instead of
	// opening states forever.
	g := prepare(t, diamondSrc)
	for _, mode := range []sched.Mode{sched.ModeChain, sched.ModeSequential} {
		cfg := sched.DefaultConfig()
		cfg.Mode = mode
		cfg.Resources = sched.Resources{Counts: map[sched.Class]int{sched.ClassALU: 1}}
		if _, err := sched.Schedule(g, cfg); err == nil {
			t.Errorf("%s: scheduled a multiply with no multiplier", mode)
		}
	}
}
