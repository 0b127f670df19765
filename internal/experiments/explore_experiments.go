package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/report"
)

// E15Exploration runs the design-space exploration engine over the full
// (preset × toggle × unroll bound × buffer size) grid — the search loop
// the paper positions Spark's fast coordinated transformations for — and
// reports the latency/area Pareto frontier plus engine statistics.
// workers <= 0 uses one worker per CPU.
func E15Exploration(workers int) (*report.Table, error) {
	space := explore.Grid([]int{4, 8, 16, 32}, explore.Variants(), []int{0, 8}, true)
	eng := &explore.Engine{Workers: workers, SimTrials: 1}
	pts := eng.Sweep(space)

	t := report.New(fmt.Sprintf("E15: design-space exploration (%d configs)", len(space)),
		"point", "config", "latency", "crit path (gu)", "area")
	failed := 0
	for i, p := range pts {
		if p.Err != "" {
			failed++
			if failed == 1 {
				t.Add("FAILED", space[i].String(), 0, 0.0, 0.0)
			}
		}
	}
	front := explore.Frontier(pts)
	for _, p := range front {
		t.Add("frontier", p.Config.String(), p.Latency, p.CritPath, p.Area)
	}
	best := explore.BestCycles(pts)
	smallest := explore.BestArea(pts)
	if best != nil {
		t.Add("best-cycle", best.Config.String(), best.Latency, best.CritPath, best.Area)
	}
	if smallest != nil {
		t.Add("best-area", smallest.Config.String(), smallest.Latency, smallest.CritPath, smallest.Area)
	}
	hits, misses := eng.CacheStats()
	t.Add("cache", fmt.Sprintf("hits=%d misses=%d", hits, misses), len(space), 0.0, 0.0)

	if failed > 0 {
		return t, fmt.Errorf("E15: %d of %d configs failed to synthesize", failed, len(space))
	}
	if len(space) < 48 {
		return t, fmt.Errorf("E15: swept only %d configs, want >= 48", len(space))
	}
	if best == nil || best.Latency != 1 {
		return t, fmt.Errorf("E15: no 1-cycle design on the frontier")
	}
	if best.Config.Preset != core.MicroprocessorBlock {
		return t, fmt.Errorf("E15: best-cycle design not from the coordinated regime")
	}
	if smallest.Area >= best.Area {
		return t, fmt.Errorf("E15: no latency/area trade-off: best-area %.1f >= best-cycle area %.1f",
			smallest.Area, best.Area)
	}
	if len(front) < 2 {
		return t, fmt.Errorf("E15: frontier collapsed to %d point(s); no latency/area trade-off found",
			len(front))
	}
	return t, nil
}

// E16PassOrder sweeps the pass-order axis (the ROADMAP follow-up to
// E15): every ordering of the four parallelizing "motion" passes —
// speculation, unrolling, constant propagation, CSE — embedded in the
// fixed inline prologue and cleanup epilogue, and reports which
// orderings reach the 1-cycle design and at what area and fixpoint
// cost. The paper's claim is that the transformations pay off in
// coordination, not in any one magic order; the fixpoint pipeline
// should therefore reach the single-cycle design from every ordering,
// with order showing up as area/rounds variation rather than a latency
// cliff. workers <= 0 uses one worker per CPU.
func E16PassOrder(n, workers int) (*report.Table, error) {
	motions := []string{"speculate", "unroll all full", "constprop", "cse"}
	var orders [][]string
	for _, m := range explore.PermutePasses(motions) {
		full := append([]string{"inline", "drop-uncalled"}, m...)
		full = append(full, "constfold", "copyprop", "dce")
		orders = append(orders, full)
	}
	space := explore.PassOrderGrid(n, orders)
	eng := &explore.Engine{Workers: workers}
	pts := eng.Sweep(space)

	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.Latency != pb.Latency {
			return pa.Latency < pb.Latency
		}
		if pa.Area != pb.Area {
			return pa.Area < pb.Area
		}
		if pa.Rounds != pb.Rounds {
			return pa.Rounds < pb.Rounds
		}
		return idx[a] < idx[b]
	})

	t := report.New(fmt.Sprintf("E16: pass-order sweep (%d orderings, n=%d)", len(space), n),
		"rank", "motion-pass order", "latency", "area", "rounds")
	oneCycle, failed := 0, 0
	for rank, i := range idx {
		p := pts[i]
		if p.Err != "" {
			failed++
			t.Add(rank+1, strings.Join(orders[i][2:2+len(motions)], " → "), "FAILED", 0.0, 0)
			continue
		}
		if p.Latency == 1 {
			oneCycle++
		}
		t.Add(rank+1, strings.Join(orders[i][2:2+len(motions)], " → "),
			p.Latency, p.Area, p.Rounds)
	}
	if failed > 0 {
		return t, fmt.Errorf("E16: %d of %d orderings failed to synthesize", failed, len(space))
	}
	if best := pts[idx[0]]; best.Latency != 1 {
		return t, fmt.Errorf("E16: no ordering reached the 1-cycle design (best: %d cycles)",
			best.Latency)
	}
	if oneCycle == 0 {
		return t, fmt.Errorf("E16: zero single-cycle orderings")
	}
	return t, nil
}

// E17AdaptiveSearch pits the adaptive search strategies against the
// exhaustive grid they replace (the ROADMAP follow-up to E15/E16):
// first sweep the full explicit-pass-list grid — every ordering of the
// four motion passes × both unroll bounds × the chaining switch — then
// give hill climbing and the genetic algorithm a quarter of that
// evaluation budget over a strictly larger space (the same axes plus
// per-motion knockouts) and require both to reach the grid's best
// latency. The prefix-biased neighbor generation keeps candidates on
// shared frontend artifacts, which Engine.Stats must show as frontend
// memory hits: the PR 2 stage cache acting as the search's incremental
// evaluator. workers <= 0 uses one worker per CPU.
func E17AdaptiveSearch(n, workers int) (*report.Table, error) {
	sp := explore.DefaultSpace(n)

	// The exhaustive baseline over the ordering × unroll × chaining
	// axes, lowered by the same Space the strategies search.
	grid := sp.OrderGrid()
	gridEng := &explore.Engine{Workers: workers}
	gridPts := gridEng.Sweep(grid)
	gridBest := explore.BestCycles(gridPts)

	t := report.New(fmt.Sprintf("E17: adaptive search vs. exhaustive grid (n=%d)", n),
		"searcher", "evaluations", "best latency", "best area", "frontend mem hits", "improvements")
	if gridBest == nil {
		return t, fmt.Errorf("E17: every grid config failed")
	}
	t.Add("grid (exhaustive)", len(grid), gridBest.Latency, gridBest.Area, "", "")

	budget := explore.Budget{MaxEvaluations: len(grid) / 4}
	obj := explore.WeightedObjective(1000, 1)
	for _, st := range []explore.Strategy{explore.HillClimb{}, explore.Genetic{}} {
		eng := &explore.Engine{Workers: workers}
		res := st.Search(context.Background(), eng, sp, obj, budget, 1)
		stats := eng.Stats()
		t.Add(res.Strategy, res.Evaluations, res.Best.Latency, res.Best.Area,
			stats.FrontendMemHits, len(res.Trajectory))
		if math.IsInf(res.BestScore, 1) || res.Best.Err != "" {
			return t, fmt.Errorf("E17: %s found no successful design (best: %+v)",
				res.Strategy, res.Best)
		}
		if res.Best.Latency != gridBest.Latency {
			return t, fmt.Errorf("E17: %s reached %d-cycle latency, grid best is %d",
				res.Strategy, res.Best.Latency, gridBest.Latency)
		}
		if res.Evaluations*4 > len(grid) {
			return t, fmt.Errorf("E17: %s spent %d evaluations, over 25%% of the %d-config grid",
				res.Strategy, res.Evaluations, len(grid))
		}
		if stats.FrontendMemHits == 0 {
			return t, fmt.Errorf("E17: %s shared no frontend artifacts between candidates",
				res.Strategy)
		}
	}
	return t, nil
}
