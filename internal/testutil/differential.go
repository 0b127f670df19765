package testutil

import (
	"fmt"
	"math/rand"

	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// DifferentialILD is the differential test harness for the paper's case
// study: it drives `trials` seeded random ILD buffers through both the
// behavioral interpreter on the input program (the golden model) and the
// cycle-accurate simulation of the synthesized module, and asserts every
// global (the B buffer, the Mark bit vector and the per-start Len
// values) ends identical — and that the golden model's decode agrees
// with the reference software decoder. input must be the untouched
// behavioral program the module was synthesized from, with an n-byte
// decode window.
//
// The module side runs through rtlsim's one stimulus loop, RunBatch,
// with the cycle watchdog derived from the FSM size (the sequential
// baselines need roughly n cycles per state; rtlsim.WatchdogCycles is a
// safety net, not a budget).
func DifferentialILD(input *ir.Program, m *rtl.Module, n, trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	envs := make([]*interp.Env, trials)
	refs := make([]*interp.Env, trials)
	for trial := range envs {
		buf := ild.RandomBuffer(rng, n)
		envs[trial] = interp.NewEnv(input)
		if err := ild.LoadBuffer(input, envs[trial], buf); err != nil {
			return fmt.Errorf("n=%d trial %d: %w", n, trial, err)
		}
		ref := envs[trial].Clone()
		refs[trial] = ref
		if _, err := interp.New(input).RunMain(ref); err != nil {
			return fmt.Errorf("n=%d trial %d: interp: %w", n, trial, err)
		}
		// Cross-check the golden model against the reference decoder.
		goldMarks, goldLens := ild.ReadMarks(input, ref), ild.ReadLens(input, ref)
		refMarks, refLens := ild.Decode(buf, n)
		for i := 0; i < n; i++ {
			if goldMarks[i] != refMarks[i] {
				return fmt.Errorf("n=%d trial %d: interp vs reference: Mark[%d] = %v, want %v",
					n, trial, i, goldMarks[i], refMarks[i])
			}
			if refMarks[i] && goldLens[i] != refLens[i] {
				return fmt.Errorf("n=%d trial %d: interp vs reference: Len[%d] = %d, want %d",
					n, trial, i, goldLens[i], refLens[i])
			}
		}
	}
	prog := rtlsim.Compile(m)
	for trial, lr := range prog.RunBatch(input, envs, rtlsim.WatchdogCycles(m.NumStates)) {
		if lr.Err != nil {
			return fmt.Errorf("n=%d trial %d: rtlsim: %w", n, trial, lr.Err)
		}
		if diff := rtlsim.CompareEnvs(input, envs[trial], refs[trial]); diff != "" {
			return fmt.Errorf("n=%d trial %d: rtlsim vs interp: %s", n, trial, diff)
		}
	}
	return nil
}
