package service

import (
	"context"
	"fmt"
	"math"
	"time"

	"sparkgo/internal/explore"
	"sparkgo/internal/obs"
)

// execute runs one job against the shared engine. It returns the result
// payload and a job-level error; cancellation is reported through the
// context (the worker inspects ctx.Err() to pick the terminal status),
// and a cancelled search still returns its partial trajectory.
func (q *Queue) execute(ctx context.Context, j *Job) (*Result, error) {
	switch j.Req.Kind {
	case KindSynth:
		return q.runSynth(ctx, j)
	case KindSweep:
		return q.runSweep(ctx, j)
	case KindSearch:
		return q.runSearch(ctx, j)
	}
	return nil, fmt.Errorf("service: unknown job kind %q", j.Req.Kind)
}

// synthConfig lowers a synth request to the engine's config.
func synthConfig(req *Request, sourceFP string) explore.Config {
	c := explore.Config{
		Source:     sourceFP,
		Preset:     req.preset(),
		MaxUnroll:  req.MaxUnroll,
		NoChaining: req.NoChaining,
		Passes:     req.Passes,
	}
	if sourceFP == "" {
		c.N = req.N
	}
	return c
}

func (q *Queue) runSynth(ctx context.Context, j *Job) (*Result, error) {
	q.setProgress(j, 0, 1)
	pt := q.eng.Evaluate(ctx, synthConfig(&j.Req, j.sourceFP))
	if explore.IsCanceled(pt) {
		return nil, ctx.Err()
	}
	if pt.Err != "" {
		return nil, fmt.Errorf("synthesis failed: %s", pt.Err)
	}
	q.setProgress(j, 1, 1)
	return &Result{
		SourceFingerprint: j.sourceFP,
		Points:            pointViews([]explore.Point{pt}),
	}, nil
}

// sweepSpace builds a sweep job's configuration grid: the ablation
// variants × unroll bounds over the requested generator scales, or over
// the job's named source.
func sweepSpace(req *Request, sourceFP string) []explore.Config {
	if sourceFP != "" {
		return explore.GridSources([]string{sourceFP}, explore.Variants(), req.MaxUnrolls, req.Classical)
	}
	return explore.Grid(req.Sizes, explore.Variants(), req.MaxUnrolls, req.Classical)
}

func (q *Queue) runSweep(ctx context.Context, j *Job) (*Result, error) {
	space := sweepSpace(&j.Req, j.sourceFP)
	total := len(space)
	q.setProgress(j, 0, total)

	// Sweep in worker-pool-sized batches so progress advances and
	// cancellation lands between batches even on large grids.
	batch := q.eng.EffectiveWorkers(total) * 2
	if batch < 4 {
		batch = 4
	}
	pts := make([]explore.Point, 0, total)
	for off := 0; off < total; off += batch {
		end := off + batch
		if end > total {
			end = total
		}
		got := q.eng.SweepContext(ctx, space[off:end])
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		pts = append(pts, got...)
		q.setProgress(j, len(pts), total)
	}
	return &Result{
		SourceFingerprint: j.sourceFP,
		Points:            pointViews(pts),
		Frontier:          pointViews(explore.Frontier(pts)),
	}, nil
}

func (q *Queue) runSearch(ctx context.Context, j *Job) (*Result, error) {
	req := &j.Req
	st, err := explore.StrategyByName(req.Strategy)
	if err != nil {
		return nil, err
	}
	obj, err := explore.ObjectiveByName(req.Objective)
	if err != nil {
		return nil, err
	}
	sp := explore.DefaultSpace(req.N)
	if j.sourceFP != "" {
		sp.Base = explore.Config{Source: j.sourceFP, Preset: sp.Base.Preset}
	}
	q.setProgress(j, 0, req.Budget)

	budget := explore.Budget{
		MaxEvaluations: req.Budget,
		MaxDuration:    time.Duration(req.BudgetMS) * time.Millisecond,
	}
	// The observer is what makes a running search visible from outside:
	// every scored batch advances the job's progress counter (so polls
	// of /v1/jobs/{id} move mid-search instead of jumping 0→budget at
	// the end), and every improvement streams out as a trajectory event.
	ctx = explore.WithSearchObserver(ctx, &explore.SearchObserver{
		OnBatch: func(evals int) { q.setProgress(j, evals, req.Budget) },
		OnImprovement: func(s explore.Step) {
			q.publishJob(j, obs.Event{
				Type:       obs.TypeTrajectory,
				Kind:       string(j.Req.Kind),
				Evaluation: s.Evaluation,
				Score:      s.Score,
				Cycles:     s.Point.Latency,
				Config:     s.Point.Config.String(),
			})
		},
		OnRound: func(n int) {
			q.publishJob(j, obs.Event{Type: obs.TypeRound, Kind: string(j.Req.Kind), Round: n})
		},
	})
	res := st.Search(ctx, q.eng, sp, obj, budget, req.Seed)
	q.setProgress(j, res.Evaluations, req.Budget)

	sv := &SearchView{
		Strategy:    res.Strategy,
		Objective:   req.Objective,
		Seed:        res.Seed,
		Evaluations: res.Evaluations,
		Revisits:    res.Revisits,
		Restarts:    res.Restarts,
		Generations: res.Generations,
		Exhausted:   res.Exhausted,
		Canceled:    res.Canceled,
		BestScore:   res.BestScore,
	}
	if !math.IsInf(res.BestScore, 1) {
		bv := pointView(res.Best)
		sv.Best = &bv
	} else {
		// +Inf does not survive JSON; an all-failed search reports it
		// as a missing best instead.
		sv.BestScore = -1
	}
	for _, s := range res.Trajectory {
		sv.Trajectory = append(sv.Trajectory, TrajectoryStep{
			Evaluation: s.Evaluation, Score: s.Score, Point: pointView(s.Point),
		})
	}
	out := &Result{SourceFingerprint: j.sourceFP, Search: sv}
	if res.Canceled {
		// The worker turns ctx.Err into the canceled status; the
		// partial trajectory still travels with the job.
		return out, ctx.Err()
	}
	if sv.Best == nil {
		return nil, fmt.Errorf("search found no successful design: every evaluated configuration failed")
	}
	return out, nil
}
