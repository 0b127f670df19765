package explore

import (
	"context"
	"math"
	"math/rand"
)

// SimulatedAnnealing is the classic Metropolis search over a Space: a
// single walker proposes one prefix-biased mutation per step (the same
// operator the genetic strategy uses, so deep pass-list positions
// mutate often and the head rarely — candidates keep sharing frontend
// prefixes with the incumbent), always accepts improvements, accepts
// uphill moves with probability exp(-Δ/T), and cools T geometrically.
// When the temperature floors out the walker reheats from a fresh
// random candidate, so an unbudgeted run keeps exploring until
// staleRounds consecutive anneals discover nothing new — the same
// convergence rule the other strategies follow.
//
// A run is deterministic under a seed, including its improvement
// trajectory.
type SimulatedAnnealing struct{}

// Annealing schedule: each anneal starts at a temperature calibrated to
// its starting score (see Search), multiplies it by annealCooling per
// step, and reheats once it falls below annealFloor of the start.
const (
	annealCooling = 0.92
	annealFloor   = 1e-3
)

func (SimulatedAnnealing) Name() string { return "anneal" }

// Search anneals until the budget, convergence or cancellation stops
// it; cancellation takes effect at the next evaluation boundary,
// keeping the trajectory found so far.
func (a SimulatedAnnealing) Search(ctx context.Context, eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	run := newSearchRun(ctx, eng, &sp, obj, b, a.Name(), seed)
	stale := 0
	for anneal := 0; !run.out() && stale < staleRounds; anneal++ {
		before := run.result.Evaluations
		cur := sp.identity()
		if anneal > 0 {
			cur = sp.random(rng)
		}
		curScore, ok := run.score(cur)
		if !ok {
			run.out() // stamp Exhausted/Canceled before stopping
			break
		}
		// Calibrate to the starting score: a few-percent uphill move is
		// routinely accepted early on. A failed start (+Inf) falls back
		// to a unit temperature — every proposal from a failure is then
		// judged on its own score.
		temp := 1.0
		if !math.IsInf(curScore, 1) && curScore > 0 {
			temp = 0.05 * curScore
		}
		floor := temp * annealFloor
		for ; temp > floor && !run.out(); temp *= annealCooling {
			next := cur.clone()
			sp.mutate(&next, rng)
			// Draw the acceptance threshold before scoring: the RNG
			// stream then advances identically whether the score comes
			// from the engine, the dedup table, or a warm cache, which
			// is what keeps trajectories seed-deterministic.
			coin := rng.Float64()
			nextScore, ok := run.score(next)
			if !ok {
				break // budget spent (or cancelled) mid-anneal
			}
			accept := false
			switch {
			case nextScore < curScore:
				// Strict improvement — including any finite score when
				// the incumbent is a +Inf failure.
				accept = true
			case math.IsInf(nextScore, 1):
				// Never walk onto a failure (exp(-Inf/T) = 0 anyway,
				// and when the incumbent is also +Inf the delta would
				// be NaN).
				accept = false
			default:
				// Uphill or equal between finite scores: Metropolis.
				accept = coin < math.Exp(-(nextScore-curScore)/temp)
			}
			if accept {
				cur, curScore = next, nextScore
			}
		}
		run.result.Restarts = anneal + 1
		run.round(anneal + 1)
		if run.result.Evaluations == before {
			stale++
		} else {
			stale = 0
		}
	}
	return run.result
}
