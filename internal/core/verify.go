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
// The RTL side runs on the compiled batched simulator: the netlist is
// lowered once and the trials step through it in lanes of
// rtlsim.MaxLanes, with the cycle watchdog derived from the schedule
// (rtlsim.WatchdogCycles), so a non-terminating design errors after
// thousands of cycles rather than millions.
func Verify(res *Result, trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	maxCycles := rtlsim.WatchdogCycles(res.Schedule.NumStates)
	prog := rtlsim.Compile(res.Module)
	for start := 0; start < trials; start += rtlsim.MaxLanes {
		lanes := min(rtlsim.MaxLanes, trials-start)
		batch := prog.NewBatch(lanes)
		refs := make([]*interp.Env, lanes)
		for ln := 0; ln < lanes; ln++ {
			trial := start + ln
			env := interp.RandomEnv(res.Input, rng)
			ref := env.Clone()
			if _, err := interp.New(res.Input).RunMain(ref); err != nil {
				return fmt.Errorf("verify trial %d: behavioral: %w", trial, err)
			}
			if err := batch.LoadEnv(ln, res.Input, env); err != nil {
				return fmt.Errorf("verify trial %d: %w", trial, err)
			}
			refs[ln] = ref
		}
		batch.Run(maxCycles)
		for ln := 0; ln < lanes; ln++ {
			trial := start + ln
			if err := batch.Err(ln); err != nil {
				return fmt.Errorf("verify trial %d: rtl: %w", trial, err)
			}
			if diff := batch.CompareEnv(ln, res.Input, refs[ln]); diff != "" {
				return fmt.Errorf("verify trial %d: mismatch: %s", trial, diff)
			}
		}
	}
	return nil
}
