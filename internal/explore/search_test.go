package explore_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
)

// strategies under test; fresh values per use, so tests stay independent.
func searchStrategies() []explore.Strategy {
	return []explore.Strategy{explore.HillClimb{}, explore.Genetic{}}
}

// TestSearchDeterministic: the same (space, objective, budget, seed)
// must produce byte-identical results on fresh engines, for both
// strategies — the trajectory is part of the contract, not just the
// best point.
func TestSearchDeterministic(t *testing.T) {
	sp := explore.DefaultSpace(3)
	b := explore.Budget{MaxEvaluations: 18}
	for _, st := range searchStrategies() {
		runA := st.Search(context.Background(), &explore.Engine{Workers: 7}, sp, explore.WeightedObjective(1000, 1), b, 42)
		runB := st.Search(context.Background(), &explore.Engine{Workers: 2}, sp, explore.WeightedObjective(1000, 1), b, 42)
		if !reflect.DeepEqual(runA, runB) {
			t.Errorf("%s: same seed diverged:\n a: %+v\n b: %+v", st.Name(), runA, runB)
		}
		if runA.Evaluations == 0 || runA.Trajectory == nil {
			t.Errorf("%s: empty run: %+v", st.Name(), runA)
		}
	}
}

// TestSearchWarmEngineSameResult: a search result must not depend on how
// warm the engine's caches are — only evaluations get cheaper.
func TestSearchWarmEngineSameResult(t *testing.T) {
	sp := explore.DefaultSpace(3)
	st := explore.HillClimb{}
	b := explore.Budget{MaxEvaluations: 12}
	cold := st.Search(context.Background(), &explore.Engine{}, sp, explore.LatencyObjective(), b, 5)
	eng := &explore.Engine{}
	eng.Sweep(explore.Grid([]int{3}, explore.Variants(), []int{0, 8}, true)) // pre-warm
	warm := st.Search(context.Background(), eng, sp, explore.LatencyObjective(), b, 5)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm engine changed the search result:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// TestSearchBudgetEvaluations: MaxEvaluations is a hard cap on distinct
// engine evaluations, and hitting it marks the run exhausted.
func TestSearchBudgetEvaluations(t *testing.T) {
	sp := explore.DefaultSpace(3)
	for _, st := range searchStrategies() {
		res := st.Search(context.Background(), &explore.Engine{}, sp, explore.WeightedObjective(1000, 1),
			explore.Budget{MaxEvaluations: 5}, 9)
		if res.Evaluations > 5 {
			t.Errorf("%s: spent %d evaluations on a budget of 5", st.Name(), res.Evaluations)
		}
		if !res.Exhausted {
			t.Errorf("%s: budget-stopped run not marked exhausted", st.Name())
		}
		if math.IsInf(res.BestScore, 1) {
			t.Errorf("%s: no scored best within budget", st.Name())
		}
	}
}

// TestSearchDeadline: a wall-clock budget stops the run after at most
// one evaluation batch; the first evaluation is always admitted so the
// run still produces a best point.
func TestSearchDeadline(t *testing.T) {
	sp := explore.DefaultSpace(3)
	for _, st := range searchStrategies() {
		res := st.Search(context.Background(), &explore.Engine{}, sp, explore.LatencyObjective(),
			explore.Budget{MaxDuration: time.Nanosecond}, 3)
		if res.Evaluations < 1 || res.Evaluations > 12 {
			t.Errorf("%s: deadline run spent %d evaluations, want 1..12 (one batch)",
				st.Name(), res.Evaluations)
		}
		if !res.Exhausted {
			t.Errorf("%s: deadline-stopped run not marked exhausted", st.Name())
		}
		if len(res.Trajectory) == 0 {
			t.Errorf("%s: deadline run produced no trajectory", st.Name())
		}
	}
}

// TestSearchFindsGridBest is the E17 property at test scale: with a
// budget far under the exhaustive grid size, both strategies must reach
// the grid's best latency, and the engine must show frontend sharing
// between neighboring candidates (the stage cache is the search's
// incremental evaluator).
func TestSearchFindsGridBest(t *testing.T) {
	sp := explore.DefaultSpace(3)
	for _, st := range searchStrategies() {
		eng := &explore.Engine{}
		res := st.Search(context.Background(), eng, sp, explore.WeightedObjective(1000, 1),
			explore.Budget{MaxEvaluations: 16}, 1)
		if res.Best.Err != "" || res.Best.Latency != 1 {
			t.Errorf("%s: best point %+v, want the 1-cycle design", st.Name(), res.Best)
		}
		if st := eng.Stats(); st.FrontendMemHits == 0 {
			t.Errorf("search shared no frontend artifacts: %+v", st)
		}
		// The trajectory must strictly improve and end at the best.
		for i := 1; i < len(res.Trajectory); i++ {
			if res.Trajectory[i].Score >= res.Trajectory[i-1].Score {
				t.Errorf("%s: trajectory not strictly improving at %d", st.Name(), i)
			}
		}
		last := res.Trajectory[len(res.Trajectory)-1]
		if last.Score != res.BestScore || !reflect.DeepEqual(last.Point, res.Best) {
			t.Errorf("%s: trajectory tail %+v != best %+v", st.Name(), last, res.Best)
		}
	}
}

// TestSearchRevisitsAreFree: revisited candidates must not burn budget;
// a search allowed more evaluations than the space holds must terminate
// with Evaluations bounded by the number of distinct configs it saw.
func TestSearchRevisitsAreFree(t *testing.T) {
	sp := explore.DefaultSpace(2)
	// Shrink to speculate, unroll and constprop: over every enabled
	// subset, its orders × 2 chain settings, × 2 unroll bounds when the
	// unroll motion is on — 54 distinct configs.
	sp.Motions = sp.Motions[:3]
	res := explore.HillClimb{}.Search(context.Background(), &explore.Engine{}, sp,
		explore.WeightedObjective(1000, 1), explore.Budget{MaxEvaluations: 500}, 2)
	if res.Revisits == 0 {
		t.Fatalf("restarted hill climb never revisited a candidate: %+v", res)
	}
	if res.Evaluations > 54 {
		t.Fatalf("spent %d evaluations on a 54-config space", res.Evaluations)
	}
	if res.Exhausted {
		t.Fatalf("converged run marked exhausted: %+v", res)
	}
}

// TestSearchUnbudgetedTerminates: with no budget at all, both
// strategies must still converge on a finite space (consecutive
// no-discovery rounds end the run) rather than cycling through
// revisits forever.
func TestSearchUnbudgetedTerminates(t *testing.T) {
	sp := explore.Space{
		Base:     explore.Config{N: 2, Preset: core.MicroprocessorBlock},
		Prologue: []string{"inline", "drop-uncalled"},
		Motions:  []string{"constprop", "cse"},
		Epilogue: []string{"dce"},
	}
	for _, st := range searchStrategies() {
		res := st.Search(context.Background(), &explore.Engine{}, sp, explore.LatencyObjective(), explore.Budget{}, 4)
		if res.Exhausted {
			t.Errorf("%s: unbudgeted run marked exhausted", st.Name())
		}
		// 2 orders × 4 masks × 2 chain, minus order-irrelevant dedups.
		if res.Evaluations == 0 || res.Evaluations > 16 {
			t.Errorf("%s: %d evaluations on a <=16-config space", st.Name(), res.Evaluations)
		}
	}
}

// TestOrderGrid pins the exhaustive baseline E17 compares against: it
// must be lowered by the same Space as the search candidates, cover
// ordering × unroll × chaining exactly once each, and include the
// identity plan.
func TestOrderGrid(t *testing.T) {
	sp := explore.DefaultSpace(4)
	grid := sp.OrderGrid()
	if len(grid) != 24*2*2 {
		t.Fatalf("grid has %d configs, want 96", len(grid))
	}
	seen := map[string]bool{}
	identity := false
	idPasses := "inline;drop-uncalled;speculate;unroll all full;constprop;cse;constfold;copyprop;dce"
	for _, c := range grid {
		k := c.String()
		if seen[k] {
			t.Fatalf("duplicate grid config %q", k)
		}
		seen[k] = true
		if strings.Join(c.Passes, ";") == idPasses && !c.NoChaining {
			identity = true
		}
	}
	if !identity {
		t.Fatal("grid misses the identity (coordinated-plan) config")
	}
}

// TestSearchAllFailures pins the no-successful-design contract: when
// every candidate fails, BestScore stays +Inf and Best stays the zero
// Point — callers must check the score, not Best.Err.
func TestSearchAllFailures(t *testing.T) {
	sp := explore.Space{
		Base:     explore.Config{N: 2, Preset: core.MicroprocessorBlock},
		Prologue: []string{"frobnicate"}, // unknown pass: every config fails
		Motions:  []string{"constprop", "cse"},
	}
	for _, st := range searchStrategies() {
		res := st.Search(context.Background(), &explore.Engine{}, sp, explore.LatencyObjective(),
			explore.Budget{MaxEvaluations: 6}, 1)
		if !math.IsInf(res.BestScore, 1) {
			t.Errorf("%s: BestScore = %v on an all-fail space, want +Inf", st.Name(), res.BestScore)
		}
		if len(res.Trajectory) != 0 {
			t.Errorf("%s: trajectory on an all-fail space: %+v", st.Name(), res.Trajectory)
		}
	}
}

// TestSearchRaceClean runs both strategies concurrently against one
// shared engine — the race detector's view of the search/cache stack.
func TestSearchRaceClean(t *testing.T) {
	eng := &explore.Engine{Workers: 4}
	sp := explore.DefaultSpace(3)
	var wg sync.WaitGroup
	for i, st := range searchStrategies() {
		wg.Add(1)
		go func(seed int64, st explore.Strategy) {
			defer wg.Done()
			res := st.Search(context.Background(), eng, sp, explore.LatencyObjective(),
				explore.Budget{MaxEvaluations: 10}, seed)
			if res.Evaluations == 0 {
				t.Errorf("%s: no evaluations", st.Name())
			}
		}(int64(i+1), st)
	}
	wg.Wait()
}

// TestStrategyAndObjectiveByName pins the CLI name registries.
func TestStrategyAndObjectiveByName(t *testing.T) {
	for name, want := range map[string]string{
		"hill": "hill-climb", "genetic": "genetic",
		"anneal": "anneal", "sa": "anneal", "simulated-annealing": "anneal",
	} {
		st, err := explore.StrategyByName(name)
		if err != nil || st.Name() != want {
			t.Errorf("StrategyByName(%q) = %v, %v", name, st, err)
		}
	}
	if _, err := explore.StrategyByName("tabu"); err == nil {
		t.Error("unknown strategy accepted")
	}
	for _, name := range []string{"latency", "area", "weighted"} {
		obj, err := explore.ObjectiveByName(name)
		if err != nil || obj == nil {
			t.Errorf("ObjectiveByName(%q): %v", name, err)
		}
		if s := obj(explore.Point{Err: "boom"}); !math.IsInf(s, 1) {
			t.Errorf("objective %q scored an error point %v, want +Inf", name, s)
		}
	}
	if _, err := explore.ObjectiveByName("power"); err == nil {
		t.Error("unknown objective accepted")
	}
}
