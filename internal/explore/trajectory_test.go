package explore_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparkgo/internal/explore"
)

// updateTrajectories regenerates the search-trajectory golden file:
//
//	go test ./internal/explore -run TestSearchTrajectoryGolden -update
//
// Regenerate ONLY after an intentional change to a strategy's moves:
// the file pins every strategy's seed-1 run, so a refactor that should
// not change behaviour must leave it byte-identical.
var updateTrajectories = flag.Bool("update", false, "rewrite the search trajectory golden file")

// TestSearchTrajectoryGolden pins the observable behaviour of each
// strategy on seed-1 budgeted runs: its counters, its best score, the
// cumulative evaluation count after every batch and every configuration
// on its improvement trajectory. The weighted objective's best is the
// identity plan; the area objective makes every strategy move off it.
func TestSearchTrajectoryGolden(t *testing.T) {
	var b strings.Builder
	for _, obj := range []string{"weighted", "area"} {
		for _, name := range []string{"hill", "genetic", "anneal"} {
			st, err := explore.StrategyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			o, err := explore.ObjectiveByName(obj)
			if err != nil {
				t.Fatal(err)
			}
			var batches []int
			ctx := explore.WithSearchObserver(context.Background(), &explore.SearchObserver{
				OnBatch: func(evals int) { batches = append(batches, evals) },
			})
			res := st.Search(ctx, &explore.Engine{}, explore.DefaultSpace(3), o,
				explore.Budget{MaxEvaluations: 24}, 1)
			fmt.Fprintf(&b, "%s %s evaluations=%d revisits=%d restarts=%d generations=%d best=%g exhausted=%v batches=%v\n",
				obj, res.Strategy, res.Evaluations, res.Revisits, res.Restarts, res.Generations, res.BestScore, res.Exhausted, batches)
			for _, s := range res.Trajectory {
				fmt.Fprintf(&b, "  %d %g %s\n", s.Evaluation, s.Score, s.Point.Config)
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "search_trajectories.golden")
	if *updateTrajectories {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("search trajectories drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
