package explore_test

import (
	"context"
	"testing"
	"time"

	"sparkgo/internal/explore"
)

// TestSweepContextPreCanceled: a sweep under an already-done context
// evaluates nothing, marks every point skipped, and touches no cache.
func TestSweepContextPreCanceled(t *testing.T) {
	eng := &explore.Engine{Workers: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	space := explore.Grid([]int{4, 8}, explore.Variants(), []int{0}, false)
	pts := eng.SweepContext(ctx, space)
	if len(pts) != len(space) {
		t.Fatalf("got %d points for %d configs", len(pts), len(space))
	}
	for i, p := range pts {
		if !explore.IsCanceled(p) {
			t.Fatalf("point %d not marked canceled: %+v", i, p)
		}
	}
	s := eng.Stats()
	if s.PointComputed != 0 || s.PointMemHits != 0 {
		t.Errorf("pre-canceled sweep touched the caches: %+v", s)
	}
	// The same engine still evaluates normally afterwards: cancellation
	// must not poison anything.
	pt := eng.Evaluate(context.Background(), space[0])
	if pt.Err != "" {
		t.Errorf("evaluate after canceled sweep: %s", pt.Err)
	}
}

// TestSweepContextCancelMidRun: cancelling partway through leaves a
// partial result — evaluated prefix points valid, the rest skipped —
// and the skipped configs evaluate cleanly on retry (no sticky errors).
func TestSweepContextCancelMidRun(t *testing.T) {
	eng := &explore.Engine{Workers: 1}
	ctx, cancel := context.WithCancel(context.Background())
	space := explore.Grid([]int{4}, explore.Variants(), []int{0, 8}, true)
	// Cancel from a goroutine as soon as the first point lands: with one
	// worker the sweep is sequential, so a tail of the space is skipped.
	done := make(chan []explore.Point, 1)
	go func() { done <- eng.SweepContext(ctx, space) }()
	time.Sleep(time.Millisecond)
	cancel()
	pts := <-done
	skipped := 0
	for _, p := range pts {
		if explore.IsCanceled(p) {
			skipped++
		} else if p.Err != "" {
			t.Errorf("non-canceled point failed: %s", p.Err)
		}
	}
	t.Logf("skipped %d of %d", skipped, len(pts))
	// Retry must compute every point, canceled ones included.
	for _, p := range eng.Sweep(space) {
		if p.Err != "" {
			t.Errorf("retry after cancel failed: %s", p.Err)
		}
	}
}

// TestSearchContextCanceled: both strategies stop at a batch boundary
// under cancellation and flag the result.
func TestSearchContextCanceled(t *testing.T) {
	for _, st := range []explore.Strategy{explore.HillClimb{}, explore.Genetic{}} {
		t.Run(st.Name(), func(t *testing.T) {
			eng := &explore.Engine{Workers: 2}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res := st.Search(ctx, eng, explore.DefaultSpace(4),
				explore.LatencyObjective(), explore.Budget{MaxEvaluations: 100}, 1)
			if !res.Canceled || !res.Exhausted {
				t.Errorf("pre-canceled search: Canceled=%t Exhausted=%t, want both true",
					res.Canceled, res.Exhausted)
			}
			if res.Evaluations != 0 {
				t.Errorf("pre-canceled search evaluated %d configs", res.Evaluations)
			}
		})
	}
}

// TestSearchContextUncanceledMatchesSearch: a cancelable context that
// is never canceled leaves the run as it is under context.Background —
// same trajectory, no Canceled flag.
func TestSearchContextUncanceledMatchesSearch(t *testing.T) {
	sp := explore.DefaultSpace(4)
	b := explore.Budget{MaxEvaluations: 12}
	for _, st := range []explore.Strategy{explore.HillClimb{}, explore.Genetic{}} {
		t.Run(st.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			a := st.Search(context.Background(), &explore.Engine{Workers: 2}, sp,
				explore.LatencyObjective(), b, 1)
			c := st.Search(ctx, &explore.Engine{Workers: 2}, sp,
				explore.LatencyObjective(), b, 1)
			if a.Canceled || c.Canceled {
				t.Errorf("uncanceled runs flagged canceled")
			}
			if a.Evaluations == 0 || a.Evaluations != c.Evaluations ||
				a.BestScore != c.BestScore || len(a.Trajectory) != len(c.Trajectory) {
				t.Errorf("live-context runs diverged: %d/%v/%d vs %d/%v/%d",
					a.Evaluations, a.BestScore, len(a.Trajectory),
					c.Evaluations, c.BestScore, len(c.Trajectory))
			}
		})
	}
}
