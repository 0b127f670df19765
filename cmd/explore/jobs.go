package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sparkgo/internal/explore"
	"sparkgo/internal/report"
	"sparkgo/internal/service"
)

// runner runs service jobs in one venue: this process (localRunner) or
// a sparkd daemon (remoteClient). Both hand back the daemon's own
// views, so one renderer prints every run the same way.
type runner interface {
	// run submits one request and waits for its terminal view. A failed
	// or canceled job is an error, and so is an interrupted wait, which
	// cancels the job first.
	run(ctx context.Context, req service.Request) (service.JobView, error)
	// stats reads the venue's cache and queue counters after the run.
	stats(ctx context.Context) (service.StatsView, error)
}

// localRunner runs jobs on a service queue in this process, over the
// engine the -workers/-sim/-cache-dir/-remote-cache flags describe.
type localRunner struct{ q *service.Queue }

// newLocalRunner starts a one-worker queue: the CLI runs its jobs one
// after another, and the engine's own pool parallelizes each of them.
func newLocalRunner(eng *explore.Engine) localRunner {
	return localRunner{q: service.NewQueue(eng, 1, 0)}
}

func (l localRunner) run(ctx context.Context, req service.Request) (service.JobView, error) {
	job, _, err := l.q.Submit(req)
	if err != nil {
		return service.JobView{}, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
	}
	if ctx.Err() != nil {
		l.q.Cancel(job.ID)
		<-job.Done()
		return l.q.View(job, true), interrupted(job.ID, ctx.Err())
	}
	v := l.q.View(job, true)
	return v, jobErr(v)
}

// stats drains the queue first, so the counters are final.
func (l localRunner) stats(ctx context.Context) (service.StatsView, error) {
	if err := l.q.Drain(ctx); err != nil {
		return service.StatsView{}, err
	}
	return l.q.Stats(), nil
}

// jobErr is the verdict on a terminal job.
func jobErr(v service.JobView) error {
	switch v.Status {
	case service.StatusFailed:
		return fmt.Errorf("job %s failed: %s", v.ID, v.Error)
	case service.StatusCanceled:
		return fmt.Errorf("job %s was canceled", v.ID)
	}
	return nil
}

// interrupted is the error of a wait cut short by Ctrl-C or the caller.
func interrupted(jobID string, cause error) error {
	return fmt.Errorf("interrupted; job %s canceled: %w", jobID, cause)
}

// sweepRequests builds the -sweep jobs: one over the generator at the
// -sizes scales, or one per -src file. The -deadline flag is each job's
// hard deadline.
func sweepRequests(sizeList, srcFiles string, deadline time.Duration) ([]service.Request, error) {
	base := service.Request{Kind: service.KindSweep, Classical: true, DeadlineMS: deadline.Milliseconds()}
	if srcFiles == "" {
		sizes, err := parseSizes(sizeList)
		if err != nil {
			return nil, err
		}
		base.Sizes = sizes
		return []service.Request{base}, nil
	}
	var reqs []service.Request
	for _, path := range strings.Split(srcFiles, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		req := base
		req.Source = string(text)
		reqs = append(reqs, req)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no source files given")
	}
	return reqs, nil
}

// searchRequests builds the -search job over the generator at scale n.
// The -deadline flag is the search's soft budget: it stops between
// batches and still reports its best design.
func searchRequests(strategy, objective string, n, budget int, deadline time.Duration, seed int64) ([]service.Request, error) {
	if budget <= 0 && deadline <= 0 {
		return nil, fmt.Errorf("search needs a budget: -budget evaluations and/or -deadline")
	}
	return []service.Request{{
		Kind: service.KindSearch, N: n,
		Strategy: strategy, Objective: objective,
		Budget: budget, Seed: seed,
		BudgetMS: deadline.Milliseconds(),
	}}, nil
}

// runJobs runs the requests one after another on r and prints each
// result — a sweep's point cloud and frontier, a search's trajectory
// and summary — then the venue's statistics. A sweep with failed
// configurations fails the run once everything is printed.
func runJobs(ctx context.Context, r runner, reqs []service.Request, w io.Writer, csv bool) error {
	show := func(t *report.Table) { printTable(w, csv, t) }
	failed, total := 0, 0
	for _, req := range reqs {
		v, err := r.run(ctx, req)
		if err != nil {
			return err
		}
		res := v.Result
		if res == nil {
			return fmt.Errorf("job %s: done without result", v.ID)
		}
		fmt.Fprintf(w, "job %s: %s in %s\n", v.ID, v.Status, v.Finished.Sub(*v.Started).Round(time.Millisecond))
		if res.SourceFingerprint != "" {
			fmt.Fprintf(w, "source fingerprint: %s (reuse via source_ref)\n", res.SourceFingerprint)
		}
		if sv := res.Search; sv != nil {
			show(trajectoryTable(req.N, sv))
			show(summaryTable(sv))
			continue
		}
		show(pointTable(fmt.Sprintf("design-space sweep (%d configs)", len(res.Points)), res.Points))
		show(pointTable("latency/area Pareto frontier", res.Frontier))
		for _, p := range res.Points {
			if p.Err != "" {
				failed++
			}
		}
		total += len(res.Points)
	}
	st, err := r.stats(ctx)
	if err != nil {
		return err
	}
	for _, t := range statsTables(st) {
		show(t)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d configurations failed", failed, total)
	}
	return nil
}

// printTable writes one table, aligned or as CSV.
func printTable(w io.Writer, csv bool, t *report.Table) {
	if csv {
		fmt.Fprintln(w, t.CSV())
	} else {
		fmt.Fprintln(w, t)
	}
}

// pointTable renders evaluated configurations in the order given.
func pointTable(title string, pts []service.PointView) *report.Table {
	t := report.New(title,
		"config", "cycles", "latency", "crit path (gu)", "area", "muxes", "FUs", "err")
	for _, p := range pts {
		t.Add(p.Config, p.Cycles, p.Latency, p.CritPath, p.Area, p.Muxes, p.FUs, p.Err)
	}
	return t
}

// trajectoryTable renders a search's strict improvements.
func trajectoryTable(n int, sv *service.SearchView) *report.Table {
	t := report.New(
		fmt.Sprintf("adaptive search: %s over n=%d (objective=%s seed=%d)",
			sv.Strategy, n, sv.Objective, sv.Seed),
		"evaluation", "score", "latency", "area", "config")
	for _, s := range sv.Trajectory {
		t.Add(s.Evaluation, s.Score, s.Point.Latency, s.Point.Area, s.Point.Config)
	}
	return t
}

// summaryTable renders a search's accounting and its best design.
func summaryTable(sv *service.SearchView) *report.Table {
	t := report.New("search summary", "metric", "value")
	t.Add("evaluations", sv.Evaluations)
	t.Add("revisits (free)", sv.Revisits)
	if sv.Restarts > 0 {
		t.Add("restarts", sv.Restarts)
	}
	if sv.Generations > 0 {
		t.Add("generations", sv.Generations)
	}
	t.Add("exhausted budget", sv.Exhausted)
	if sv.Canceled {
		t.Add("canceled", true)
	}
	if sv.Best != nil {
		t.Add("best score", sv.BestScore)
		t.Add("best latency", sv.Best.Latency)
		t.Add("best area", sv.Best.Area)
		t.Add("best config", sv.Best.Config)
	}
	return t
}

// statsTables renders the venue's counters: where each cache lookup was
// served from (memory, disk, the remote peer, or computed), one row per
// layer of the staged flow plus the absorbed store errors, and the job
// queue's accounting.
func statsTables(st service.StatsView) []*report.Table {
	s := st.Engine
	c := report.New(fmt.Sprintf("exploration cache statistics (schema %s)", st.CacheSchema),
		"layer", "memory hits", "disk hits", "remote hits", "computed", "errors")
	c.Add("point", s.PointMemHits, s.PointDiskHits, s.PointRemoteHits, s.PointComputed, "")
	c.Add("frontend stage", s.FrontendMemHits, s.FrontendDiskHits, s.FrontendRemoteHits, s.FrontendComputed, "")
	c.Add("midend stage", s.MidendMemHits, s.MidendDiskHits, s.MidendRemoteHits, s.MidendComputed, "")
	c.Add("backend stage", s.BackendMemHits, s.BackendDiskHits, s.BackendRemoteHits, s.BackendComputed, "")
	c.Add("disk", "", "", "", "", s.DiskErrors)
	c.Add("remote", "", "", "", "", s.RemoteErrors)
	q := report.New("job queue statistics", "metric", "value")
	q.Add("submitted", st.Queue.Submitted)
	q.Add("coalesced (single-flight)", st.Queue.Coalesced)
	q.Add("queued", st.Queue.Queued)
	q.Add("running", st.Queue.Running)
	q.Add("done", st.Queue.Done)
	q.Add("failed", st.Queue.Failed)
	q.Add("canceled", st.Queue.Canceled)
	return []*report.Table{c, q}
}
