package explore

import (
	"context"
	"math/rand"
	"sort"
)

// Genetic is a small steady-generation genetic algorithm over a Space:
// tournament selection, order-preserving (OX1) crossover on the motion
// permutation, uniform knob inheritance, and per-knob prefix-biased
// mutation. Elites carry over unchanged, so the best-so-far never
// regresses. Each generation is scored as one engine batch, so the
// worker pool parallelizes within a generation while the trajectory
// stays seed-deterministic.
type Genetic struct{}

// Genetic parameters. The identity candidate — the paper's coordinated
// plan — is always seeded into the first generation.
const (
	gaPopulation = 12
	// gaTournament is the selection tournament size.
	gaTournament = 3
	// gaCrossover is the probability a child is bred from two parents
	// rather than cloned from one.
	gaCrossover = 0.9
	// gaMutation is the per-child probability of one mutation move.
	// Mutation positions are tail-biased (see Space.mutate), preserving
	// pass-list prefixes.
	gaMutation = 0.5
	// gaElite is the number of best candidates copied unchanged into
	// the next generation.
	gaElite = 1
)

func (Genetic) Name() string { return "genetic" }

// scored pairs a candidate with its objective value for ranking.
type scored struct {
	cand  candidate
	score float64
}

// Search evolves until the budget, convergence or cancellation stops
// it; cancellation takes effect at the next generation boundary,
// keeping the trajectory found so far.
func (g Genetic) Search(ctx context.Context, eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	run := newSearchRun(ctx, eng, &sp, obj, b, g.Name(), seed)

	// Found the first generation on the identity plan — paired with its
	// chaining flip, the guaranteed frontend-sharing probe of the
	// scheduler knob — plus random draws.
	pop := make([]candidate, 0, gaPopulation)
	flip := sp.identity()
	flip.chain = !flip.chain
	pop = append(pop, sp.identity(), flip)
	for len(pop) < gaPopulation {
		pop = append(pop, sp.random(rng))
	}
	ranked := rank(run, pop)
	if len(ranked) == 0 {
		// Nothing scored: the budget or the context cut the first
		// generation. out() stamps Exhausted/Canceled on the result.
		run.out()
		return run.result
	}

	stale := 0
	for gen := 0; !run.out() && stale < staleRounds; gen++ {
		before := run.result.Evaluations
		next := make([]candidate, 0, gaPopulation)
		for i := 0; i < gaElite && i < len(ranked); i++ {
			next = append(next, ranked[i].cand.clone())
		}
		for len(next) < gaPopulation {
			child := tournament(ranked, rng).cand.clone()
			if rng.Float64() < gaCrossover {
				mate := tournament(ranked, rng)
				child = crossover(child, mate.cand, rng)
			}
			if rng.Float64() < gaMutation {
				sp.mutate(&child, rng)
			}
			next = append(next, child)
		}
		ranked = rank(run, next)
		if len(ranked) == 0 {
			run.out() // stamp Exhausted/Canceled before stopping
			break     // budget (or cancellation) cut the whole generation
		}
		run.result.Generations = gen + 1
		run.round(gen + 1)
		if run.result.Evaluations == before {
			stale++
		} else {
			stale = 0
		}
	}
	return run.result
}

// rank scores a population as one engine batch and returns the scored
// survivors best-first (stable under equal scores, so ranking — and the
// whole run — is deterministic). Candidates the budget left unscored are
// dropped.
func rank(run *searchRun, pop []candidate) []scored {
	vals, ok := run.scores(pop)
	ranked := make([]scored, 0, len(pop))
	for i := range pop {
		if ok[i] {
			ranked = append(ranked, scored{cand: pop[i], score: vals[i]})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score < ranked[j].score })
	return ranked
}

// tournament draws gaTournament candidates with replacement and returns
// the fittest.
func tournament(ranked []scored, rng *rand.Rand) scored {
	best := ranked[rng.Intn(len(ranked))]
	for i := 1; i < gaTournament; i++ {
		if c := ranked[rng.Intn(len(ranked))]; c.score < best.score {
			best = c
		}
	}
	return best
}

// crossover breeds a child from two candidates: OX1 order crossover on
// the motion permutation (a contiguous slice of a's ordering survives in
// place; the rest fills in b's relative order, preserving precedence
// structure from both parents) plus uniform inheritance of the mask and
// the scalar knobs.
func crossover(a candidate, b candidate, rng *rand.Rand) candidate {
	child := a.clone()
	n := len(a.order)
	if n > 1 {
		lo, hi := rng.Intn(n), rng.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		kept := make([]bool, n)
		for i := lo; i <= hi; i++ {
			kept[a.order[i]] = true
		}
		fill := hi + 1
		for _, m := range b.order {
			if kept[m] {
				continue
			}
			child.order[fill%n] = m
			fill++
		}
	}
	for i := range child.mask {
		if rng.Intn(2) == 0 {
			child.mask[i] = b.mask[i]
		}
	}
	if rng.Intn(2) == 0 {
		child.unroll = b.unroll
	}
	// An unused draw: seeded searches reproduce the trajectories pinned
	// in search_trajectories.golden only while the RNG advances as
	// before the scale knob was removed.
	rng.Intn(2)
	if rng.Intn(2) == 0 {
		child.chain = b.chain
	}
	return child
}
