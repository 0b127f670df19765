// Package testutil provides shared helpers for the sparkgo test suites:
// deterministic pseudo-random input generation for IR programs and
// behavioral-equivalence checking between program versions, which is the
// master invariant of the whole transformation system (DESIGN.md §5).
package testutil

import (
	"fmt"
	"math/rand"

	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
)

// Mismatch describes a divergence found by Equivalent.
type Mismatch struct {
	Trial  int
	Detail string
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("trial %d: %s", m.Trial, m.Detail)
}

// Equivalent checks that programs a and b compute identical observable
// results (main's return value and every global's final state) on `trials`
// random inputs drawn from seed. Programs must share global names (they
// are matched by name, since transformed programs have distinct Var
// objects). Returns nil if equivalent on all trials.
func Equivalent(a, b *ir.Program, trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		envA := interp.RandomEnv(a, rng)
		envB := interp.NewEnv(b)
		// Mirror envA into envB by global name.
		for _, ga := range a.Globals {
			gb := b.Global(ga.Name)
			if gb == nil {
				return &Mismatch{trial, fmt.Sprintf("global %s missing in b", ga.Name)}
			}
			if ga.Type.IsArray() {
				envB.SetArray(gb, envA.Array(ga))
			} else {
				envB.SetScalar(gb, envA.Scalar(ga))
			}
		}
		ra, errA := interp.New(a).RunMain(envA)
		rb, errB := interp.New(b).RunMain(envB)
		if (errA == nil) != (errB == nil) {
			return &Mismatch{trial, fmt.Sprintf("error mismatch: a=%v b=%v", errA, errB)}
		}
		if errA != nil {
			continue // both erred the same way; nothing more to compare
		}
		if ra != rb {
			return &Mismatch{trial, fmt.Sprintf("return value: a=%d b=%d", ra, rb)}
		}
		for _, ga := range a.Globals {
			gb := b.Global(ga.Name)
			if ga.Type.IsArray() {
				va, vb := envA.Array(ga), envB.Array(gb)
				for i := range va {
					if va[i] != vb[i] {
						return &Mismatch{trial, fmt.Sprintf(
							"global %s[%d]: a=%d b=%d", ga.Name, i, va[i], vb[i])}
					}
				}
			} else if envA.Scalar(ga) != envB.Scalar(gb) {
				return &Mismatch{trial, fmt.Sprintf(
					"global %s: a=%d b=%d", ga.Name, envA.Scalar(ga), envB.Scalar(gb))}
			}
		}
	}
	return nil
}
