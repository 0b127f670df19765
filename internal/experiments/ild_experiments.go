package experiments

import (
	"fmt"
	"math/rand"

	"sparkgo/internal/bind"
	"sparkgo/internal/core"
	"sparkgo/internal/htg"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/report"
	"sparkgo/internal/rtlsim"
	"sparkgo/internal/testutil"
)

// E12Fig15SingleCycle synthesizes the single-cycle ILD across buffer sizes
// and verifies the architecture of Fig 15(b): one state, RTL equivalent to
// the reference decoder, data-calculation depth roughly constant in n
// while the ripple control logic grows with n and dominates the cycle
// time.
func E12Fig15SingleCycle(sizes []int, trials int) (*report.Table, error) {
	t := report.New("E12 / Fig 15: single-cycle ILD architecture",
		"n", "cycles", "crit path (gu)", "data-calc (gu)", "ripple (gu)",
		"area", "muxes", "FUs", "wire vars", "verified")
	var lastRipple float64
	var firstData float64
	for i, n := range sizes {
		p := ild.Program(n)
		res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			return nil, err
		}
		if res.Cycles != 1 {
			return t, fmt.Errorf("E12: n=%d got %d cycles, want 1", n, res.Cycles)
		}
		dataDepth, rippleDepth := ildStageDepths(res)
		verr := testutil.DifferentialILD(res.Input, res.Module, n, trials, int64(15+n))
		br := bind.Summarize(res.Schedule.Plan)
		t.Add(n, res.Cycles, res.Stats.CriticalPath, dataDepth, rippleDepth,
			res.Stats.Area, res.Stats.Muxes, res.Stats.FUs, br.WireVars, verr == nil)
		if verr != nil {
			return t, fmt.Errorf("E12: n=%d RTL diverges from reference: %w", n, verr)
		}
		if i == 0 {
			firstData = dataDepth
		}
		if i == len(sizes)-1 {
			// Shape checks: ripple grows with n; data-calc roughly flat.
			if rippleDepth <= lastRipple {
				return t, fmt.Errorf("E12: ripple depth did not grow (%.1f → %.1f)",
					lastRipple, rippleDepth)
			}
			if dataDepth > firstData*2 {
				return t, fmt.Errorf("E12: data-calc depth grew too much (%.1f → %.1f)",
					firstData, dataDepth)
			}
		}
		lastRipple = rippleDepth
	}
	return t, nil
}

// ildStageDepths extracts the Fig 15(b) stage boundaries from the
// schedule: the completion time of the speculative data-calculation +
// per-byte control-logic stage (everything computed unconditionally:
// lookups, length contributions, per-window length selection) versus the
// ripple control stage (everything tied to NextStartByte: the guards, the
// guarded Mark/Len commits, and the next-start accumulation). The paper's
// architecture claim is that the first is essentially independent of the
// buffer size n while the ripple grows with n.
func ildStageDepths(res *core.Result) (dataCalc, ripple float64) {
	isRipple := func(op *htg.Op) bool {
		if len(op.BB.Guard) > 0 {
			return true
		}
		if w := op.Writes(); w != nil && w.Name == "NextStartByte" {
			return true
		}
		for _, v := range op.Reads() {
			if v.Name == "NextStartByte" {
				return true
			}
		}
		return false
	}
	for _, op := range res.Graph.AllOps() {
		fin := res.Schedule.Finish[op.ID]
		if isRipple(op) {
			if fin > ripple {
				ripple = fin
			}
		} else if fin > dataCalc {
			dataCalc = fin
		}
	}
	return dataCalc, ripple
}

// E13Baseline contrasts the paper's regime against classical HLS on the
// ILD: the baseline needs many cycles per buffer (a loop FSM) while the
// coordinated flow needs one; the price is area.
func E13Baseline(sizes []int) (*report.Table, error) {
	t := report.New("E13 / Fig 1 + §1: classical HLS baseline vs coordinated flow",
		"n", "baseline cycles/buffer", "baseline states", "spark cycles", "baseline area", "spark area", "area ratio")
	for _, n := range sizes {
		p := ild.Program(n)
		base, err := core.Synthesize(p, core.Options{Preset: core.ClassicalASIC})
		if err != nil {
			return nil, err
		}
		baseCycles, err := simulatedCycles(base, 3)
		if err != nil {
			return nil, err
		}
		spark, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			return nil, err
		}
		ratio := spark.Stats.Area / base.Stats.Area
		t.Add(n, baseCycles, base.Cycles, spark.Cycles,
			base.Stats.Area, spark.Stats.Area, ratio)
		if spark.Cycles != 1 {
			return t, fmt.Errorf("E13: spark n=%d: %d cycles", n, spark.Cycles)
		}
		if baseCycles < n {
			return t, fmt.Errorf("E13: baseline n=%d finished in %d cycles (< n); not sequential",
				n, baseCycles)
		}
	}
	return t, nil
}

// simulatedCycles runs the synthesized design on random inputs and
// returns the maximum cycle count observed (the FSM latency per
// activation). Trials run batched on the compiled simulator, bounded by
// the schedule-derived watchdog.
func simulatedCycles(res *core.Result, trials int) (int, error) {
	rng := rand.New(rand.NewSource(23))
	envs := make([]*interp.Env, trials)
	for i := range envs {
		envs[i] = interp.RandomEnv(res.Input, rng)
	}
	prog := rtlsim.Compile(res.Module)
	max := 0
	for _, lr := range prog.RunBatch(res.Input, envs, rtlsim.WatchdogCycles(res.Module.NumStates)) {
		if lr.Err != nil {
			return 0, lr.Err
		}
		if lr.Cycles > max {
			max = lr.Cycles
		}
	}
	return max, nil
}

// E14Fig16Natural synthesizes the natural while-form through the
// while→for normalization (the paper's future-work transformation) and
// checks it reaches the same single-cycle architecture.
func E14Fig16Natural(n int) (*report.Table, error) {
	t := report.New(fmt.Sprintf("E14 / Fig 16: natural description (n=%d)", n),
		"metric", "value")
	p := ild.NaturalProgram(n)
	res, err := core.Synthesize(p, core.Options{
		Preset: core.MicroprocessorBlock, NormalizeWhile: true,
	})
	if err != nil {
		return nil, err
	}
	normalized := false
	for _, st := range res.Stages {
		if st.Pass == "normalize-while" && st.Changed {
			normalized = true
		}
	}
	t.Add("normalize-while fired", normalized)
	t.Add("cycles", res.Cycles)
	t.Add("critical path (gu)", res.Stats.CriticalPath)
	if !normalized {
		return t, fmt.Errorf("E14: normalization did not fire")
	}
	if res.Cycles != 1 {
		return t, fmt.Errorf("E14: %d cycles, want 1", res.Cycles)
	}
	if err := core.Verify(res, 20, 14); err != nil {
		return t, err
	}
	t.Add("verified vs behavioral", true)
	return t, nil
}

// Ablations runs A1–A4 on the ILD: disabling each coordinated
// transformation breaks the single-cycle result or inflates the design,
// demonstrating the paper's thesis that the transformations only work in
// coordination.
func Ablations(n int) (*report.Table, error) {
	t := report.New(fmt.Sprintf("A1-A4: ablations on the ILD (n=%d)", n),
		"variant", "cycles/buffer", "states", "crit path (gu)", "area", "verified")
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full coordination", core.Options{}},
		{"A1 no speculation", core.Options{NoSpeculation: true}},
		{"A2 no unroll", core.Options{NoUnroll: true}},
		{"A3 no const-prop", core.Options{NoConstProp: true}},
		{"A4 no chaining", core.Options{NoChaining: true}},
	}
	var fullCycles int
	for i, v := range variants {
		p := ild.Program(n)
		res, err := core.Synthesize(p, v.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		cycles, err := simulatedCycles(res, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if err := core.Verify(res, 10, 31); err != nil {
			return t, fmt.Errorf("%s: %w", v.name, err)
		}
		t.Add(v.name, cycles, res.Cycles, res.Stats.CriticalPath, res.Stats.Area, true)
		if i == 0 {
			fullCycles = cycles
			if cycles != 1 {
				return t, fmt.Errorf("full coordination: %d cycles, want 1", cycles)
			}
		}
		// A2 and A4 must cost cycles; A1/A3 may cost cycles or path.
		if v.opt.NoUnroll || v.opt.NoChaining {
			if cycles <= fullCycles {
				return t, fmt.Errorf("%s: expected more cycles than %d, got %d",
					v.name, fullCycles, cycles)
			}
		}
	}
	return t, nil
}

// equivalentPrograms cross-checks two ILD program versions by
// interpretation on shared random inputs.
func equivalentPrograms(a, b *ir.Program, trials int) error {
	return testutil.Equivalent(a, b, trials, 77)
}
