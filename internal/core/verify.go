package core

import (
	"fmt"
	"math/rand"

	"sparkgo/internal/interp"
	"sparkgo/internal/rtlsim"
)

// Verify co-simulates the synthesized RTL against behavioral
// interpretation of the original input on `trials` random stimulus
// vectors, returning the first divergence found (nil when the design is
// functionally equivalent on all trials). This is the check the paper
// performs implicitly by construction; here it is mechanical.
//
// The RTL side runs through rtlsim's one stimulus loop, RunBatch, with
// the cycle watchdog derived from the schedule (rtlsim.WatchdogCycles),
// so a non-terminating design errors after thousands of cycles rather
// than millions; CompareEnvs diffs each trial's final ports against the
// behavioral run.
func Verify(res *Result, trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	envs := make([]*interp.Env, trials)
	refs := make([]*interp.Env, trials)
	for trial := range envs {
		envs[trial] = interp.RandomEnv(res.Input, rng)
		refs[trial] = envs[trial].Clone()
		if _, err := interp.New(res.Input).RunMain(refs[trial]); err != nil {
			return fmt.Errorf("verify trial %d: behavioral: %w", trial, err)
		}
	}
	prog := rtlsim.Compile(res.Module)
	for trial, lr := range prog.RunBatch(res.Input, envs, rtlsim.WatchdogCycles(res.Schedule.NumStates)) {
		if lr.Err != nil {
			return fmt.Errorf("verify trial %d: rtl: %w", trial, lr.Err)
		}
		if diff := rtlsim.CompareEnvs(res.Input, envs[trial], refs[trial]); diff != "" {
			return fmt.Errorf("verify trial %d: mismatch: %s", trial, diff)
		}
	}
	return nil
}
