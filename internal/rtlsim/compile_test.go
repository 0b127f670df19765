package rtlsim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// differentialDesigns enumerates the DifferentialILD design matrix: every
// buffer size in both synthesis regimes plus the natural (while-form)
// description — the corpus the compiled path is pinned against.
func differentialDesigns(t *testing.T) map[string]*core.Result {
	t.Helper()
	designs := map[string]*core.Result{}
	for _, n := range []int{4, 8, 16, 32} {
		micro, err := core.Synthesize(ild.Program(n), core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			t.Fatalf("n=%d micro: %v", n, err)
		}
		designs[fmt.Sprintf("micro/n=%d", n)] = micro
		classical, err := core.Synthesize(ild.Program(n), core.Options{Preset: core.ClassicalASIC})
		if err != nil {
			t.Fatalf("n=%d classical: %v", n, err)
		}
		designs[fmt.Sprintf("classical/n=%d", n)] = classical
		natural, err := core.Synthesize(ild.NaturalProgram(n), core.Options{
			Preset: core.MicroprocessorBlock, NormalizeWhile: true,
		})
		if err != nil {
			t.Fatalf("n=%d natural: %v", n, err)
		}
		designs[fmt.Sprintf("natural/n=%d", n)] = natural
	}
	return designs
}

// compileModes enumerates both compiled execution models: the
// bit-sliced default and the struct-of-arrays reference it is pinned
// against.
var compileModes = []struct {
	name    string
	compile func(*rtl.Module) *rtlsim.Program
}{
	{"bitsliced", rtlsim.Compile},
	{"soa", rtlsim.CompileSoA},
}

// TestCompiledDifferentialSuite pins both compiled batch paths — the
// bit-sliced model and the struct-of-arrays reference — bit-for-bit
// against the scalar Sim (the reference implementation) and the
// behavioral interpreter on every DifferentialILD design: for each
// seeded stimulus vector, all four executions must agree on every
// architectural port and on the per-trial cycle count.
func TestCompiledDifferentialSuite(t *testing.T) {
	for name, res := range differentialDesigns(t) {
		name, res := name, res
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const trials = 24
			rng := rand.New(rand.NewSource(77))
			input := res.Input
			maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)

			envs := make([]*interp.Env, trials)
			refs := make([]*interp.Env, trials)
			scalarCycles := make([]int, trials)
			for i := range envs {
				envs[i] = interp.RandomEnv(input, rng)
				refs[i] = envs[i].Clone()
				if _, err := interp.New(input).RunMain(refs[i]); err != nil {
					t.Fatalf("trial %d: interp: %v", i, err)
				}
				sim := rtlsim.New(res.Module)
				if err := sim.LoadEnv(input, envs[i].Clone()); err != nil {
					t.Fatalf("trial %d: scalar load: %v", i, err)
				}
				cycles, err := sim.Run(maxCycles)
				if err != nil {
					t.Fatalf("trial %d: scalar run: %v", i, err)
				}
				scalarCycles[i] = cycles
				if diff := sim.CompareEnv(input, refs[i]); diff != "" {
					t.Fatalf("trial %d: scalar vs interp: %s", i, diff)
				}
			}

			for _, mode := range compileModes {
				prog := mode.compile(res.Module)
				batchEnvs := make([]*interp.Env, trials)
				for i := range envs {
					batchEnvs[i] = envs[i].Clone()
				}
				for i, lr := range prog.RunBatch(input, batchEnvs, maxCycles) {
					if lr.Err != nil {
						t.Fatalf("trial %d: %s batch: %v", i, mode.name, lr.Err)
					}
					if lr.Cycles != scalarCycles[i] {
						t.Fatalf("trial %d: %s batch ran %d cycles, scalar %d",
							i, mode.name, lr.Cycles, scalarCycles[i])
					}
					// RunBatch stored the lane's final ports back into
					// batchEnvs[i]; it must match the behavioral reference
					// exactly.
					if diff := rtlsim.CompareEnvs(input, batchEnvs[i], refs[i]); diff != "" {
						t.Fatalf("trial %d: %s batch vs interp: %s", i, mode.name, diff)
					}
				}
			}
		})
	}
}

// TestInstructionMix pins the width classification itself: a sequential
// control-dominated design must compile to a stream with genuine packed
// single-word instructions and boundary crossings under the bit-sliced
// model, while the SoA reference must contain none; both models cover
// every gate exactly once.
func TestInstructionMix(t *testing.T) {
	res := dataDependentDesign(t)
	gates := len(res.Module.Gates)

	bit := rtlsim.Compile(res.Module).Mix()
	if bit.Total() != gates {
		t.Fatalf("bit-sliced mix %+v covers %d insns, module has %d gates", bit, bit.Total(), gates)
	}
	if bit.Packed == 0 {
		t.Fatalf("bit-sliced mix %+v has no packed instructions on a control-dominated design", bit)
	}
	if bit.Boundary == 0 {
		t.Fatalf("bit-sliced mix %+v has no pack/unpack boundary instructions", bit)
	}

	soa := rtlsim.CompileSoA(res.Module).Mix()
	if soa.Total() != gates {
		t.Fatalf("SoA mix %+v covers %d insns, module has %d gates", soa, soa.Total(), gates)
	}
	if soa.Packed != 0 || soa.Boundary != 0 {
		t.Fatalf("SoA reference mix %+v contains bit-sliced instructions", soa)
	}
}

// dataDependentDesign synthesizes a classical-FSM design whose cycle
// count depends on the stimulus, so batched lanes genuinely finish at
// different times (exercising active-set compaction).
func dataDependentDesign(t *testing.T) *core.Result {
	t.Helper()
	p := ild.Program(8)
	res, err := core.Synthesize(p, core.Options{Preset: core.ClassicalASIC})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLaneIndependencePermutation is the seeded lane-independence
// property: permuting the stimulus order across lanes never changes any
// trial's result. Each trial's (cycles, final ports) must depend only on
// its own stimulus, not on which lane it occupies or who its batch
// neighbours are.
func TestLaneIndependencePermutation(t *testing.T) {
	res := dataDependentDesign(t)
	input := res.Input
	prog := rtlsim.Compile(res.Module)
	maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)

	const trials = rtlsim.MaxLanes
	rng := rand.New(rand.NewSource(99))
	base := make([]*interp.Env, trials)
	for i := range base {
		base[i] = interp.RandomEnv(input, rng)
	}
	run := func(order []int) ([]int, []*interp.Env) {
		envs := make([]*interp.Env, trials)
		for pos, idx := range order {
			envs[pos] = base[idx].Clone()
		}
		cycles := make([]int, trials)
		for pos, lr := range prog.RunBatch(input, envs, maxCycles) {
			if lr.Err != nil {
				t.Fatalf("lane %d (trial %d): %v", pos, order[pos], lr.Err)
			}
			cycles[pos] = lr.Cycles
		}
		return cycles, envs
	}

	identity := make([]int, trials)
	for i := range identity {
		identity[i] = i
	}
	wantCycles, wantEnvs := run(identity)

	// The workload must actually spread finish times across lanes, or the
	// property is vacuous for the compaction path.
	spread := map[int]bool{}
	for _, c := range wantCycles {
		spread[c] = true
	}
	if len(spread) < 2 {
		t.Fatalf("workload finished every lane in the same %d cycles; want data-dependent spread", wantCycles[0])
	}

	perm := rand.New(rand.NewSource(7))
	for round := 0; round < 5; round++ {
		order := perm.Perm(trials)
		gotCycles, gotEnvs := run(order)
		for pos, idx := range order {
			if gotCycles[pos] != wantCycles[idx] {
				t.Fatalf("round %d: trial %d ran %d cycles in lane %d, %d in lane %d",
					round, idx, gotCycles[pos], pos, wantCycles[idx], idx)
			}
			if diff := rtlsim.CompareEnvs(input, gotEnvs[pos], wantEnvs[idx]); diff != "" {
				t.Fatalf("round %d: trial %d diverged in lane %d: %s", round, idx, pos, diff)
			}
		}
	}
}

// hungModule builds a minimal non-terminating design: a one-state FSM
// whose only transition loops back to itself, with an input port so
// environments load cleanly.
func hungModule() *rtl.Module {
	m := rtl.NewModule("hung")
	a := m.Input("a", ir.U8)
	m.ScalarPort["a"] = a
	m.NumStates = 1
	m.Trans = []rtl.Transition{{From: 0, To: 0}}
	return m
}

// TestWatchdogHungFSM is the watchdog regression: a non-terminating
// design must error after the schedule-derived bound — thousands of
// cycles — on both the scalar and the batched path, not after the old
// hardcoded 1<<22-cycle budget.
func TestWatchdogHungFSM(t *testing.T) {
	m := hungModule()
	bound := rtlsim.WatchdogCycles(m.NumStates)
	if bound >= 1<<22 {
		t.Fatalf("derived bound %d is no better than the old hardcoded 1<<22", bound)
	}

	sim := rtlsim.New(m)
	cycles, err := sim.Run(bound)
	if err == nil {
		t.Fatal("scalar: expected watchdog error for hung FSM")
	}
	if cycles != bound {
		t.Fatalf("scalar: stopped at %d cycles, want the derived bound %d", cycles, bound)
	}

	prog := rtlsim.Compile(m)
	batch := prog.NewBatch(4)
	batch.Run(bound)
	for ln := 0; ln < 4; ln++ {
		err := batch.Err(ln)
		if err == nil {
			t.Fatalf("batch lane %d: expected watchdog error for hung FSM", ln)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(bound)) {
			t.Fatalf("batch lane %d: error %q does not mention the bound %d", ln, err, bound)
		}
		if batch.Cycles(ln) != bound {
			t.Fatalf("batch lane %d: stopped at %d cycles, want %d", ln, batch.Cycles(ln), bound)
		}
	}
}

// stuckModule builds a design whose single state has no matching
// transition (its only edge requires a condition that is constant-false)
// and a register write that would fire in that state — the setup for the
// commit-before-transition-check corruption bug.
func stuckModule() *rtl.Module {
	m := rtl.NewModule("stuck")
	r := m.Reg("r", ir.U8, 5)
	m.ScalarPort["r"] = r
	nine := m.ConstSignal(9, ir.U8)
	never := m.ConstSignal(0, ir.Bool)
	m.NumStates = 1
	m.RegWrites = []rtl.RegWrite{{Reg: r, State: 0, Value: nine}}
	m.Trans = []rtl.Transition{{From: 0, Cond: never, CondValue: true, To: -1}}
	return m
}

// TestNoTransitionLeavesStateUntouched is the corruption regression: when
// no FSM transition matches, the simulator must report the error with the
// pre-commit picture intact — registers unwritten, cycle counter and FSM
// state unchanged — on both the scalar and the batched path.
func TestNoTransitionLeavesStateUntouched(t *testing.T) {
	sim := rtlsim.New(stuckModule())
	if err := sim.Step(); err == nil {
		t.Fatal("scalar: expected no-matching-transition error")
	}
	if v, _ := sim.Scalar("r"); v != 5 {
		t.Errorf("scalar: register committed on failed transition: r=%d, want 5", v)
	}
	if sim.Cycles() != 0 {
		t.Errorf("scalar: cycle counter advanced on failed transition: %d, want 0", sim.Cycles())
	}
	if sim.State() != 0 {
		t.Errorf("scalar: state moved on failed transition: %d, want 0", sim.State())
	}

	prog := rtlsim.Compile(stuckModule())
	batch := prog.NewBatch(3)
	batch.Run(16)
	for ln := 0; ln < 3; ln++ {
		if err := batch.Err(ln); err == nil {
			t.Fatalf("batch lane %d: expected no-matching-transition error", ln)
		}
		if v, _ := batch.Scalar(ln, "r"); v != 5 {
			t.Errorf("batch lane %d: register committed on failed transition: r=%d, want 5", ln, v)
		}
		if batch.Cycles(ln) != 0 {
			t.Errorf("batch lane %d: cycle counter advanced: %d, want 0", ln, batch.Cycles(ln))
		}
	}
}

// TestCompareEnvLengthGuard is the differential-harness panic regression:
// a module whose array port disagrees in length with the program's array
// type must produce a mismatch diagnostic, not an index panic — and on
// the batched path it must fail the lane rather than be padded away when
// the lane's ports are stored back into the environment.
func TestCompareEnvLengthGuard(t *testing.T) {
	// Module with a 2-element "A" port against a program with A: uint8[4].
	m := rtl.NewModule("short")
	m.ArrayPort["A"] = []*rtl.Signal{m.Input("A0", ir.U8), m.Input("A1", ir.U8)}
	m.NumStates = 0

	prog := ir.NewProgram("p")
	prog.Globals = append(prog.Globals, &ir.Var{Name: "A", Type: ir.Array(ir.U8, 4)})
	env := interp.NewEnv(prog)

	sim := rtlsim.New(m)
	diff := sim.CompareEnv(prog, env)
	if diff == "" {
		t.Fatal("scalar: expected a length-mismatch diagnostic, got equality")
	}
	if !strings.Contains(diff, "length mismatch") {
		t.Fatalf("scalar: diagnostic %q does not report the length divergence", diff)
	}

	got := env.Clone()
	lr := rtlsim.Compile(m).RunBatch(prog, []*interp.Env{got}, 4)[0]
	if lr.Err == nil || !strings.Contains(lr.Err.Error(), "length mismatch") {
		t.Fatalf("batch: lane error %v does not report the length divergence", lr.Err)
	}
}

// TestBatchZeroAllocPerCycle asserts the compiled hot path is
// allocation-free: stepping a full batch through a multi-cycle design
// allocates nothing after setup — the property that removed the
// per-cycle map of the scalar Sim.
func TestBatchZeroAllocPerCycle(t *testing.T) {
	res := dataDependentDesign(t)
	prog := rtlsim.Compile(res.Module)
	batch := prog.NewBatch(rtlsim.MaxLanes)
	rng := rand.New(rand.NewSource(5))
	for ln := 0; ln < rtlsim.MaxLanes; ln++ {
		if err := batch.LoadEnv(ln, res.Input, interp.RandomEnv(res.Input, rng)); err != nil {
			t.Fatal(err)
		}
	}
	maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)
	allocs := testing.AllocsPerRun(10, func() {
		batch.Reset()
		if err := batch.Run(maxCycles); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch Run allocated %.1f objects per run, want 0", allocs)
	}
}

// TestStaggeredWatchdogRetirement is the packed-retirement isolation
// regression: when a shared watchdog bound lets some lanes finish and
// times the rest out, every retired lane's result — including its
// packed 1-bit registers — must be exactly what a solo run produces.
// The cycles the survivors keep stepping after a lane retires must
// never touch the retired lane's packed bits, and each timed-out lane
// must report the watchdog error at exactly the bound.
func TestStaggeredWatchdogRetirement(t *testing.T) {
	res := dataDependentDesign(t)
	input := res.Input
	fullBound := rtlsim.WatchdogCycles(res.Module.NumStates)

	const trials = rtlsim.MaxLanes
	rng := rand.New(rand.NewSource(31))
	envs := make([]*interp.Env, trials)
	for i := range envs {
		envs[i] = interp.RandomEnv(input, rng)
	}

	for _, mode := range compileModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			prog := mode.compile(res.Module)

			// Solo reference: each trial alone in a single-lane batch,
			// full watchdog headroom.
			refCycles := make([]int, trials)
			refEnvs := make([]*interp.Env, trials)
			for i := range envs {
				solo := prog.NewBatch(1)
				if err := solo.LoadEnv(0, input, envs[i].Clone()); err != nil {
					t.Fatal(err)
				}
				if err := solo.Run(fullBound); err != nil {
					t.Fatalf("trial %d solo: %v", i, err)
				}
				refCycles[i] = solo.Cycles(0)
				refEnvs[i] = envs[i].Clone()
				if err := solo.StoreEnv(0, input, refEnvs[i]); err != nil {
					t.Fatal(err)
				}
			}

			// Pick a bound strictly inside the finish-time spread, so the
			// co-batched run genuinely staggers: some lanes retire, some
			// hit the watchdog mid-batch.
			minC, maxC := refCycles[0], refCycles[0]
			for _, c := range refCycles {
				minC, maxC = min(minC, c), max(maxC, c)
			}
			if minC == maxC {
				t.Fatalf("workload finished every trial in %d cycles; want data-dependent spread", minC)
			}
			bound := (minC + maxC) / 2

			batch := prog.NewBatch(trials)
			for i := range envs {
				if err := batch.LoadEnv(i, input, envs[i].Clone()); err != nil {
					t.Fatal(err)
				}
			}
			batch.Run(bound)

			retired, timedOut := 0, 0
			for i := range envs {
				if refCycles[i] <= bound {
					retired++
					if err := batch.Err(i); err != nil {
						t.Fatalf("lane %d (finishes in %d <= bound %d): unexpected error %v",
							i, refCycles[i], bound, err)
					}
					if !batch.Done(i) {
						t.Fatalf("lane %d: finished solo in %d cycles but not done at bound %d",
							i, refCycles[i], bound)
					}
					if got := batch.Cycles(i); got != refCycles[i] {
						t.Fatalf("lane %d: %d cycles co-batched, %d solo", i, got, refCycles[i])
					}
					got := envs[i].Clone()
					if err := batch.StoreEnv(i, input, got); err != nil {
						t.Fatal(err)
					}
					if diff := rtlsim.CompareEnvs(input, got, refEnvs[i]); diff != "" {
						t.Fatalf("lane %d: retired state corrupted by later cycles: %s", i, diff)
					}
				} else {
					timedOut++
					err := batch.Err(i)
					if err == nil {
						t.Fatalf("lane %d (needs %d > bound %d): expected watchdog error",
							i, refCycles[i], bound)
					}
					if !strings.Contains(err.Error(), fmt.Sprint(bound)) {
						t.Fatalf("lane %d: error %q does not mention the bound %d", i, err, bound)
					}
					if got := batch.Cycles(i); got != bound {
						t.Fatalf("lane %d: watchdog fired at %d cycles, want exactly %d", i, got, bound)
					}
				}
			}
			if retired == 0 || timedOut == 0 {
				t.Fatalf("bound %d did not stagger the batch: %d retired, %d timed out",
					bound, retired, timedOut)
			}
		})
	}
}

// TestBatchComposition is the co-batching property: a trial's result is
// independent of which other trials share its batch. Random subsets of
// the stimulus set, co-batched in random order, must reproduce each
// member's solo (cycles, final ports) exactly.
func TestBatchComposition(t *testing.T) {
	res := dataDependentDesign(t)
	input := res.Input
	prog := rtlsim.Compile(res.Module)
	maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)

	const trials = 48
	rng := rand.New(rand.NewSource(23))
	base := make([]*interp.Env, trials)
	refCycles := make([]int, trials)
	refEnvs := make([]*interp.Env, trials)
	for i := range base {
		base[i] = interp.RandomEnv(input, rng)
		refEnvs[i] = base[i].Clone()
		lr := prog.RunBatch(input, []*interp.Env{refEnvs[i]}, maxCycles)[0]
		if lr.Err != nil {
			t.Fatalf("trial %d solo: %v", i, lr.Err)
		}
		refCycles[i] = lr.Cycles
	}

	pick := rand.New(rand.NewSource(67))
	for round := 0; round < 8; round++ {
		k := 1 + pick.Intn(trials)
		members := pick.Perm(trials)[:k]
		envs := make([]*interp.Env, k)
		for pos, idx := range members {
			envs[pos] = base[idx].Clone()
		}
		for pos, lr := range prog.RunBatch(input, envs, maxCycles) {
			idx := members[pos]
			if lr.Err != nil {
				t.Fatalf("round %d: trial %d: %v", round, idx, lr.Err)
			}
			if lr.Cycles != refCycles[idx] {
				t.Fatalf("round %d: trial %d ran %d cycles co-batched with %d trials, %d solo",
					round, idx, lr.Cycles, k, refCycles[idx])
			}
			if diff := rtlsim.CompareEnvs(input, envs[pos], refEnvs[idx]); diff != "" {
				t.Fatalf("round %d: trial %d diverged co-batched: %s", round, idx, diff)
			}
		}
	}
}

// TestRunBatchChunksBeyondMaxLanes covers the chunking path: more trials
// than MaxLanes must still come back one result per env, in order.
func TestRunBatchChunksBeyondMaxLanes(t *testing.T) {
	res := dataDependentDesign(t)
	input := res.Input
	prog := rtlsim.Compile(res.Module)
	maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)

	const trials = rtlsim.MaxLanes + 17
	rng := rand.New(rand.NewSource(11))
	envs := make([]*interp.Env, trials)
	refs := make([]*interp.Env, trials)
	for i := range envs {
		envs[i] = interp.RandomEnv(input, rng)
		refs[i] = envs[i].Clone()
		if _, err := interp.New(input).RunMain(refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	results := prog.RunBatch(input, envs, maxCycles)
	if len(results) != trials {
		t.Fatalf("got %d results for %d envs", len(results), trials)
	}
	for i, lr := range results {
		if lr.Err != nil {
			t.Fatalf("trial %d: %v", i, lr.Err)
		}
		if diff := rtlsim.CompareEnvs(input, envs[i], refs[i]); diff != "" {
			t.Fatalf("trial %d: %s", i, diff)
		}
	}
}
