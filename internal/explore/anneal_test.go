package explore_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sparkgo/internal/explore"
)

// annealBudget is the evaluation budget the determinism tests run
// under: enough for several temperature levels, small enough to stay
// fast.
const annealBudget = 24

func annealOnce(t *testing.T, eng *explore.Engine, seed int64) explore.Result {
	t.Helper()
	res := explore.SimulatedAnnealing{}.Search(context.Background(), eng, explore.DefaultSpace(4),
		explore.WeightedObjective(1000, 1), explore.Budget{MaxEvaluations: annealBudget}, seed)
	if math.IsInf(res.BestScore, 1) {
		t.Fatalf("anneal found no successful design: %+v", res)
	}
	if res.Best.Err != "" {
		t.Fatalf("anneal best point failed: %s", res.Best.Err)
	}
	return res
}

// TestAnnealDeterministicTrajectory is the seed-determinism contract
// every strategy carries, applied to simulated annealing: the same
// (space, objective, budget, seed) yields the same Result — including
// the improvement trajectory — on a cold engine, on a second cold
// engine, and on an engine whose caches are already warm from the first
// run (cache state must never leak into the search decisions).
func TestAnnealDeterministicTrajectory(t *testing.T) {
	engA := &explore.Engine{}
	a := annealOnce(t, engA, 7)
	b := annealOnce(t, &explore.Engine{}, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed on two cold engines diverged:\n  a: %+v\n  b: %+v", a, b)
	}
	warm := annealOnce(t, engA, 7) // every evaluation now answered from cache
	if !reflect.DeepEqual(a, warm) {
		t.Errorf("warm-engine rerun diverged from the cold run:\n  cold: %+v\n  warm: %+v", a, warm)
	}
	if len(a.Trajectory) == 0 {
		t.Fatal("no improvement trajectory recorded")
	}
	last := a.Trajectory[len(a.Trajectory)-1]
	if last.Score != a.BestScore || last.Point.Config.String() != a.Best.Config.String() {
		t.Errorf("trajectory tail %+v does not match Best %+v/%v", last, a.Best, a.BestScore)
	}
	if a.Strategy != "anneal" {
		t.Errorf("strategy name %q, want anneal", a.Strategy)
	}

	c := annealOnce(t, &explore.Engine{}, 8)
	if reflect.DeepEqual(a.Trajectory, c.Trajectory) && a.Evaluations == c.Evaluations &&
		a.Revisits == c.Revisits {
		t.Error("different seeds produced byte-identical searches (suspicious RNG wiring)")
	}
}

// TestAnnealRespectsBudget pins the budget contract: distinct
// evaluations never exceed MaxEvaluations, and a budget-stopped run is
// flagged Exhausted.
func TestAnnealRespectsBudget(t *testing.T) {
	res := annealOnce(t, &explore.Engine{}, 3)
	if res.Evaluations > annealBudget {
		t.Errorf("evaluations %d exceed budget %d", res.Evaluations, annealBudget)
	}
	if !res.Exhausted {
		t.Errorf("budget-capped anneal not flagged Exhausted: %+v", res)
	}
	if res.Restarts == 0 {
		t.Errorf("anneal completed no outer rounds: %+v", res)
	}
}

// TestAnnealConvergesUnbudgeted: on a tiny space with no budget at all,
// the stale-round rule must terminate the walk rather than cycling
// through revisits forever.
func TestAnnealConvergesUnbudgeted(t *testing.T) {
	sp := explore.Space{
		Base:     explore.DefaultSpace(4).Base,
		Prologue: []string{"inline", "drop-uncalled"},
		Motions:  []string{"speculate", "constprop"},
		Epilogue: []string{"constfold", "copyprop", "dce"},
	}
	res := explore.SimulatedAnnealing{}.Search(context.Background(), &explore.Engine{}, sp,
		explore.LatencyObjective(), explore.Budget{}, 11)
	if res.Exhausted {
		t.Errorf("unbudgeted anneal reported a spent budget: %+v", res)
	}
	if math.IsInf(res.BestScore, 1) {
		t.Errorf("unbudgeted anneal found nothing: %+v", res)
	}
	if res.Revisits == 0 {
		t.Error("anneal never revisited a candidate on a tiny space (dedup not exercised)")
	}
}
