package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sparkgo/internal/explore"
	"sparkgo/internal/obs"
)

// ErrDraining is returned by Submit once Drain has begun: the daemon is
// shutting down and accepts no new work.
var ErrDraining = errors.New("service: queue is draining")

// ErrNotFound is returned for job IDs the queue has never issued.
var ErrNotFound = errors.New("service: no such job")

// Job is one unit of queued work. All mutable fields are guarded by the
// owning queue's lock; external readers get consistent snapshots via
// View.
type Job struct {
	ID  string
	Key string
	Req Request

	status    Status
	coalesced int
	progress  Progress
	created   time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *Result
	sourceFP  string

	// cancelRequested distinguishes a DELETE'd job from one whose own
	// deadline expired — both surface as a context error to the run.
	cancelRequested bool
	cancel          context.CancelFunc
	done            chan struct{}

	// stream is the job's live event log, created at submit and closed
	// by finishLocked after the terminal event; the SSE endpoint
	// subscribes to it.
	stream *jobStream
}

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Queue runs jobs from many clients on a bounded worker pool over one
// shared exploration engine. In-flight requests with the same canonical
// key are single-flighted: a duplicate submit attaches to the existing
// job instead of enqueueing work the engine would only re-derive.
// Dequeue order is priority-first (higher first), FIFO within a level.
type Queue struct {
	eng        *explore.Engine
	gcMaxBytes int64

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	order   []string        // issue order, for listing
	pending []*Job          // queued jobs awaiting a worker
	active  map[string]*Job // single-flight table: key → queued/running job
	nextID  int
	closed  bool
	wg      sync.WaitGroup

	submitted     int64
	coalesced     int64
	doneCount     int64
	failed        int64
	canceled      int64
	running       int
	terminalCount int

	gcRuns         int64
	gcRemovedFiles int64
	gcRemovedBytes int64
	gcErrors       int64
	// gcPerKind accumulates removal counters per artifact kind across
	// GC runs (lazily allocated on the first eviction).
	gcPerKind map[string]*KindGCView
	lastGC    time.Time

	// streams accounts SSE subscriptions across all job streams.
	streams streamCounters

	// parsed memoizes inline source text → program fingerprint, so each
	// distinct text is parsed once (see resolveSource).
	parsed sourceMemo
}

// NewQueue starts a queue with the given worker-pool size (<=0: 1) over
// the shared engine. gcMaxBytes > 0 garbage-collects the engine's disk
// cache down to that budget after jobs finish — the knob that keeps a
// long-lived shared deployment's cache directory bounded.
func NewQueue(eng *explore.Engine, workers int, gcMaxBytes int64) *Queue {
	if workers <= 0 {
		workers = 1
	}
	q := &Queue{
		eng:        eng,
		gcMaxBytes: gcMaxBytes,
		jobs:       map[string]*Job{},
		active:     map[string]*Job{},
	}
	q.cond = sync.NewCond(&q.mu)
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Engine exposes the shared engine (the stats endpoint reads it).
func (q *Queue) Engine() *explore.Engine { return q.eng }

// Submit normalizes, keys, and enqueues a request. When an identical
// request is already queued or running, the existing job is returned
// with deduped=true — the single flight — and no new work is enqueued.
func (q *Queue) Submit(req Request) (job *Job, deduped bool, err error) {
	if err := req.Normalize(); err != nil {
		return nil, false, err
	}
	// Parse/register the source before taking the queue lock: the key
	// must hash the content fingerprint, and parse errors are submit
	// errors, not job failures. A text seen before is not parsed again.
	sourceFP, err := q.resolveSource(&req)
	if err != nil {
		return nil, false, err
	}
	key := req.key(sourceFP)

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, ErrDraining
	}
	if j, ok := q.active[key]; ok {
		j.coalesced++
		q.coalesced++
		// The duplicate's client still cares about latency: a coalesced
		// submit at higher priority boosts the shared job rather than
		// silently running at the original's priority.
		if req.Priority > j.Req.Priority {
			j.Req.Priority = req.Priority
		}
		q.publishJob(j, obs.Event{Type: obs.TypeJob, Op: "coalesced", Kind: string(j.Req.Kind)})
		return j, true, nil
	}
	q.nextID++
	j := &Job{
		ID:       fmt.Sprintf("j%d", q.nextID),
		Key:      key,
		Req:      req,
		status:   StatusQueued,
		created:  time.Now(),
		sourceFP: sourceFP,
		done:     make(chan struct{}),
		stream:   newJobStream(&q.streams),
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.active[key] = j
	q.pending = append(q.pending, j)
	q.submitted++
	q.publishJob(j, obs.Event{Type: obs.TypeJob, Op: "submitted", Kind: string(j.Req.Kind)})
	q.cond.Signal()
	return j, false, nil
}

// Get returns a job by ID.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel stops a job: a queued job is removed from the queue and marked
// canceled immediately; a running job has its context cancelled and
// stops at the next evaluation-batch boundary. Cancelling a terminal
// job is a no-op.
func (q *Queue) Cancel(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.status {
	case StatusQueued:
		q.removePending(j)
		q.finishLocked(j, StatusCanceled, "canceled before start", nil)
	case StatusRunning:
		j.cancelRequested = true
		j.cancel()
	}
	return j, nil
}

// removePending drops a job from the pending slice (caller holds mu).
func (q *Queue) removePending(j *Job) {
	for i, p := range q.pending {
		if p == j {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// maxRetainedJobs caps the terminal jobs (and their result payloads —
// point clouds, trajectories) kept for polling. A long-lived daemon
// would otherwise grow without bound; the cumulative counters in Stats
// are unaffected by eviction. Clients that poll within the retention
// window — the only sane pattern — never notice; a poll for an evicted
// job gets 404.
const maxRetainedJobs = 1024

// finishLocked moves a job to a terminal status (caller holds mu).
func (q *Queue) finishLocked(j *Job, st Status, errMsg string, res *Result) {
	if j.status.Terminal() {
		return
	}
	j.status = st
	j.errMsg = errMsg
	j.result = res
	j.finished = time.Now()
	delete(q.active, j.Key)
	switch st {
	case StatusDone:
		q.doneCount++
	case StatusFailed:
		q.failed++
	case StatusCanceled:
		q.canceled++
	}
	q.terminalCount++
	ev := obs.Event{Type: obs.TypeJob, Op: string(st), Kind: string(j.Req.Kind), Err: errMsg}
	if p := j.progress; p != (Progress{}) {
		ev.Done, ev.Total = p.Done, p.Total
	}
	q.publishJob(j, ev)
	// The terminal event is the last frame any subscriber sees: closing
	// the stream ends every live SSE connection after it drains.
	j.stream.close()
	close(j.done)
	q.cond.Broadcast()
	q.evictTerminalLocked()
}

// evictTerminalLocked drops the oldest terminal jobs over the retention
// cap (caller holds mu). Live jobs are never evicted, so the table is
// bounded by maxRetainedJobs plus whatever is actually in flight.
func (q *Queue) evictTerminalLocked() {
	for q.terminalCount > maxRetainedJobs {
		evicted := false
		for i, id := range q.order {
			if j := q.jobs[id]; j.status.Terminal() {
				delete(q.jobs, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				q.terminalCount--
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// pop dequeues the next job: highest priority first, FIFO within a
// level (caller holds mu; pending is non-empty).
func (q *Queue) pop() *Job {
	best := 0
	for i := 1; i < len(q.pending); i++ {
		if q.pending[i].Req.Priority > q.pending[best].Req.Priority {
			best = i
		}
	}
	j := q.pending[best]
	q.pending = append(q.pending[:best], q.pending[best+1:]...)
	return j
}

// worker is one pool goroutine: dequeue, run, finish, repeat until the
// queue is drained.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		j := q.pop()
		ctx, cancel := context.WithCancel(context.Background())
		if j.Req.DeadlineMS > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Req.DeadlineMS)*time.Millisecond)
		}
		j.cancel = cancel
		j.status = StatusRunning
		j.started = time.Now()
		q.running++
		q.publishJob(j, obs.Event{Type: obs.TypeJob, Op: "started", Kind: string(j.Req.Kind)})
		q.mu.Unlock()

		res, runErr := q.execute(ctx, j)
		cancel()

		q.mu.Lock()
		q.running--
		switch {
		case runErr == nil:
			// execute's own verdict decides: a cancel or deadline that
			// fires in the gap after successful completion must not
			// flip a done job to canceled/failed.
			q.finishLocked(j, StatusDone, "", res)
		case j.cancelRequested && ctx.Err() != nil:
			// A cancelled search still carries its partial trajectory.
			q.finishLocked(j, StatusCanceled, "canceled", res)
		case ctx.Err() == context.DeadlineExceeded:
			q.finishLocked(j, StatusFailed, "deadline exceeded", res)
		default:
			q.finishLocked(j, StatusFailed, runErr.Error(), nil)
		}
		q.mu.Unlock()
		q.maybeGC()
	}
}

// Drain stops intake and waits for every accepted job — running and
// still queued — to finish. When ctx expires first, everything
// outstanding is cancelled and Drain still waits for the workers to
// wind down before returning the context error, so the engine is
// guaranteed quiescent either way.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		for _, j := range q.active {
			switch j.status {
			case StatusQueued:
				q.removePending(j)
				q.finishLocked(j, StatusCanceled, "canceled by drain", nil)
			case StatusRunning:
				j.cancelRequested = true
				j.cancel()
			}
		}
		q.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

// gcInterval throttles post-job cache GC: a GC pass walks the whole
// cache directory, so running one after every millisecond-scale cached
// job from every worker would spend more I/O scanning than evicting.
const gcInterval = 30 * time.Second

// maybeGC applies the queue's byte budget to the engine's disk cache
// after a job finishes — at most once per gcInterval across workers —
// accumulating the counters /v1/stats reports.
func (q *Queue) maybeGC() {
	if q.gcMaxBytes <= 0 || q.eng.CacheDir == "" {
		return
	}
	q.mu.Lock()
	if !q.lastGC.IsZero() && time.Since(q.lastGC) < gcInterval {
		q.mu.Unlock()
		return
	}
	q.lastGC = time.Now()
	q.mu.Unlock()

	st, err := q.eng.CacheGC(q.gcMaxBytes)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.gcRuns++
	if err != nil {
		q.gcErrors++
		return
	}
	q.gcRemovedFiles += int64(st.RemovedFiles)
	q.gcRemovedBytes += st.RemovedBytes
	for _, k := range st.Kinds {
		if k.RemovedFiles == 0 {
			continue
		}
		if q.gcPerKind == nil {
			q.gcPerKind = map[string]*KindGCView{}
		}
		acc := q.gcPerKind[k.Kind]
		if acc == nil {
			acc = &KindGCView{Kind: k.Kind}
			q.gcPerKind[k.Kind] = acc
		}
		acc.RemovedFiles += int64(k.RemovedFiles)
		acc.RemovedBytes += k.RemovedBytes
	}
}

// setProgress updates a job's progress counter and publishes it as a
// progress event, so pollers and stream subscribers advance together.
func (q *Queue) setProgress(j *Job, done, total int) {
	q.mu.Lock()
	j.progress = Progress{Done: done, Total: total}
	q.publishJob(j, obs.Event{Type: obs.TypeProgress, Kind: string(j.Req.Kind), Done: done, Total: total})
	q.mu.Unlock()
}

// View snapshots a job for JSON rendering; includeResult attaches the
// payload (poll responses include it once terminal, list responses stay
// slim).
func (q *Queue) View(j *Job, includeResult bool) JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.viewLocked(j, includeResult)
}

// viewLocked is View with the queue lock already held.
func (q *Queue) viewLocked(j *Job, includeResult bool) JobView {
	v := JobView{
		ID:        j.ID,
		Key:       j.Key,
		Kind:      j.Req.Kind,
		Status:    j.status,
		Priority:  j.Req.Priority,
		Coalesced: j.coalesced,
		Created:   j.created,
		Error:     j.errMsg,
	}
	if j.progress != (Progress{}) {
		p := j.progress
		v.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if includeResult && j.status.Terminal() {
		v.Result = j.result
	}
	return v
}

// List snapshots every job in issue order, atomically under one lock
// hold so the listing is a consistent picture of the queue.
func (q *Queue) List() []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobView, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.viewLocked(q.jobs[id], false))
	}
	return out
}

// Stats snapshots the /v1/stats payload: shared-engine cache counters,
// queue accounting, and GC accounting under the current cache schema.
func (q *Queue) Stats() StatsView {
	es := q.eng.Stats()
	q.mu.Lock()
	defer q.mu.Unlock()
	return StatsView{
		CacheSchema:   explore.DiskSchema(),
		StageVersions: explore.Versions(),
		Engine:        es,
		Queue: QueueStatsView{
			Submitted: q.submitted,
			Coalesced: q.coalesced,
			Queued:    len(q.pending),
			Running:   q.running,
			Done:      q.doneCount,
			Failed:    q.failed,
			Canceled:  q.canceled,
		},
		GC: GCStatsView{
			Runs:         q.gcRuns,
			RemovedFiles: q.gcRemovedFiles,
			RemovedBytes: q.gcRemovedBytes,
			Errors:       q.gcErrors,
			PerKind:      q.gcPerKindLocked(),
		},
		Events: q.eventStatsLocked(),
	}
}

// eventStatsLocked snapshots bus and SSE-stream accounting (caller
// holds the queue lock; the counters themselves are atomic).
func (q *Queue) eventStatsLocked() EventStatsView {
	bs := q.eng.Obs.Stats()
	return EventStatsView{
		BusPublished:       bs.Published,
		BusDropped:         bs.Dropped,
		BusSubscribers:     bs.Subscribers,
		StreamsOpened:      q.streams.opened.Load(),
		StreamsActive:      q.streams.active.Load(),
		SubscribersDropped: q.streams.dropped.Load(),
	}
}

// gcPerKindLocked snapshots the cumulative per-kind eviction counters,
// sorted by kind name. Caller holds the queue lock.
func (q *Queue) gcPerKindLocked() []KindGCView {
	if len(q.gcPerKind) == 0 {
		return nil
	}
	out := make([]KindGCView, 0, len(q.gcPerKind))
	for _, k := range q.gcPerKind {
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
