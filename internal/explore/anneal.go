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
// The zero value is a usable configuration; like HillClimb and Genetic,
// a run is deterministic under a seed, including its improvement
// trajectory.
type SimulatedAnnealing struct {
	// InitialTemp is the starting temperature in objective units
	// (0 = auto: calibrated to the identity candidate's score so early
	// uphill moves of a few percent are routinely accepted).
	InitialTemp float64
	// Cooling is the per-step temperature multiplier in (0, 1)
	// (0 = 0.92).
	Cooling float64
	// FloorRatio stops one anneal when T falls below
	// InitialTemp·FloorRatio (0 = 1e-3); the walker then reheats from a
	// random candidate.
	FloorRatio float64
}

func (a SimulatedAnnealing) Name() string { return "anneal" }

func (a SimulatedAnnealing) defaults() SimulatedAnnealing {
	d := a
	if d.Cooling <= 0 || d.Cooling >= 1 {
		d.Cooling = 0.92
	}
	if d.FloorRatio <= 0 || d.FloorRatio >= 1 {
		d.FloorRatio = 1e-3
	}
	return d
}

func (a SimulatedAnnealing) Search(eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result {
	return a.SearchContext(context.Background(), eng, sp, obj, b, seed)
}

// SearchContext is Search under a context: cancellation stops the walk
// at the next evaluation boundary, keeping the trajectory found so far.
func (a SimulatedAnnealing) SearchContext(ctx context.Context, eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result {
	a = a.defaults()
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
		temp := a.InitialTemp
		if temp <= 0 {
			// Auto-calibrate to the starting score: a few-percent uphill
			// move is routinely accepted early on. A failed start (+Inf)
			// falls back to a unit temperature — every proposal from a
			// failure is then judged on its own score.
			temp = 1
			if !math.IsInf(curScore, 1) && curScore > 0 {
				temp = 0.05 * curScore
			}
		}
		floor := temp * a.FloorRatio
		for ; temp > floor && !run.out(); temp *= a.Cooling {
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
