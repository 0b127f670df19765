package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"sparkgo/internal/explore"
	"sparkgo/internal/obs"
	"sparkgo/internal/report"
)

// searchStep is one trajectory improvement in the JSON summary.
type searchStep struct {
	Evaluation int     `json:"evaluation"`
	Score      float64 `json:"score"`
	Config     string  `json:"config"`
	Latency    int     `json:"latency"`
	Area       float64 `json:"area"`
}

// searchReport is the BENCH_search.json schema CI archives.
// CacheSchema and StageVersions identify the cache generation the run
// was measured under: archived reports are only comparable when they
// match, and a stage-version bump shows up as a schema change instead
// of a silent performance cliff.
type searchReport struct {
	Schema        string                `json:"schema"`
	Timestamp     string                `json:"timestamp"`
	CacheSchema   string                `json:"cache_schema"`
	StageVersions explore.StageVersions `json:"stage_versions"`
	GoOS          string                `json:"goos"`
	GoArch        string                `json:"goarch"`
	CPUs          int                   `json:"cpus"`
	N             int                   `json:"n"`
	Strategy      string                `json:"strategy"`
	Objective     string                `json:"objective"`
	Seed          int64                 `json:"seed"`
	Budget        int                   `json:"budget"`
	Nanos         int64                 `json:"ns"`
	Evaluations   int                   `json:"evaluations"`
	Revisits      int                   `json:"revisits"`
	Restarts      int                   `json:"restarts,omitempty"`
	Generations   int                   `json:"generations,omitempty"`
	Exhausted     bool                  `json:"exhausted"`
	BestScore     float64               `json:"best_score"`
	BestConfig    string                `json:"best_config"`
	BestLatency   int                   `json:"best_latency"`
	BestArea      float64               `json:"best_area"`
	Trajectory    []searchStep          `json:"trajectory"`
	Cache         explore.Stats         `json:"cache"`
	// Metrics is the run's folded observability snapshot (stage latency
	// histogram counts/sums by disposition, tier ops, sim cycles), keyed
	// by Prometheus series name — the same numbers sparkd's /metrics
	// would expose for this work.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// runSearch drives one adaptive search over the default space at scale n
// and prints the trajectory, the best design, and the engine's cache
// statistics; jsonPath != "" additionally writes the machine-readable
// summary CI archives as BENCH_search.json.
func runSearch(ctx context.Context, strategy, objective string, n, budgetEvals int,
	deadline time.Duration, seed int64, workers, simTrials int, cacheDir, remoteCache, jsonPath string,
	printTable func(*report.Table)) error {
	st, err := explore.StrategyByName(strategy)
	if err != nil {
		return err
	}
	obj, err := explore.ObjectiveByName(objective)
	if err != nil {
		return err
	}
	if budgetEvals <= 0 && deadline <= 0 {
		return fmt.Errorf("search needs a budget: -budget evaluations and/or -deadline")
	}
	eng := &explore.Engine{Workers: workers, SimTrials: simTrials, CacheDir: cacheDir, RemoteCache: remoteCache}
	reg := obs.NewRegistry()
	eng.Obs = obs.NewBus(obs.NewMetrics(reg))
	budget := explore.Budget{MaxEvaluations: budgetEvals, MaxDuration: deadline}

	start := time.Now()
	res := st.SearchContext(ctx, eng, explore.DefaultSpace(n), obj, budget, seed)
	elapsed := time.Since(start)

	// A BestScore still at +Inf means no candidate ever evaluated
	// successfully: res.Best is the zero Point, not a design (and +Inf
	// does not survive JSON marshaling).
	if math.IsInf(res.BestScore, 1) {
		if res.Canceled {
			return fmt.Errorf("search canceled before any configuration was evaluated")
		}
		return fmt.Errorf("search found no successful design: every evaluated configuration failed")
	}

	t := report.New(
		fmt.Sprintf("adaptive search: %s over n=%d (objective=%s seed=%d)",
			res.Strategy, n, objective, seed),
		"evaluation", "score", "latency", "area", "config")
	for _, s := range res.Trajectory {
		t.Add(s.Evaluation, s.Score, s.Point.Latency, s.Point.Area, s.Point.Config.String())
	}
	printTable(t)

	sum := report.New("search summary", "metric", "value")
	sum.Add("evaluations", res.Evaluations)
	sum.Add("revisits (free)", res.Revisits)
	if res.Restarts > 0 {
		sum.Add("restarts", res.Restarts)
	}
	if res.Generations > 0 {
		sum.Add("generations", res.Generations)
	}
	sum.Add("exhausted budget", res.Exhausted)
	if res.Canceled {
		sum.Add("canceled", true)
	}
	sum.Add("best score", res.BestScore)
	sum.Add("best latency", res.Best.Latency)
	sum.Add("best area", res.Best.Area)
	sum.Add("best config", res.Best.Config.String())
	sum.Add("wall time", elapsed.Round(time.Millisecond).String())
	printTable(sum)
	printTable(cacheTable(eng.Stats()))

	if res.Best.Err != "" {
		return fmt.Errorf("search best point failed: %s", res.Best.Err)
	}

	if jsonPath != "" {
		stats := eng.Stats()
		rep := searchReport{
			Schema:        "sparkgo/bench-search/v3",
			Timestamp:     time.Now().UTC().Format(time.RFC3339),
			CacheSchema:   explore.DiskSchema(),
			StageVersions: explore.Versions(),
			GoOS:          runtime.GOOS, GoArch: runtime.GOARCH, CPUs: runtime.NumCPU(),
			N: n, Strategy: res.Strategy, Objective: objective, Seed: seed,
			Budget: budgetEvals, Nanos: elapsed.Nanoseconds(),
			Evaluations: res.Evaluations, Revisits: res.Revisits,
			Restarts: res.Restarts, Generations: res.Generations,
			Exhausted: res.Exhausted, BestScore: res.BestScore,
			BestConfig:  res.Best.Config.String(),
			BestLatency: res.Best.Latency, BestArea: res.Best.Area,
			Cache:   stats,
			Metrics: reg.Snapshot(),
		}
		for _, s := range res.Trajectory {
			rep.Trajectory = append(rep.Trajectory, searchStep{
				Evaluation: s.Evaluation, Score: s.Score,
				Config:  s.Point.Config.String(),
				Latency: s.Point.Latency, Area: s.Point.Area,
			})
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %s found score %.1f in %d evaluations (%.1fms)\n",
			jsonPath, res.Strategy, res.BestScore, res.Evaluations,
			float64(elapsed.Nanoseconds())/1e6)
	}
	if res.Canceled {
		// The partial trajectory was reported (and the JSON written);
		// the exit code still says the run did not complete.
		return fmt.Errorf("search canceled after %d evaluations", res.Evaluations)
	}
	return nil
}
