package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
	"unsafe"

	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
)

// slowEngine is an engine whose generator sleeps at blocker scales (see
// service_test.go) so queue tests can hold workers busy on demand.
func slowEngine() *explore.Engine {
	return &explore.Engine{
		Workers:   2,
		SimTrials: 0,
		Source: func(n int) *ir.Program {
			if n > blockerScale {
				time.Sleep(300 * time.Millisecond)
				n = 4
			}
			return ild.Program(n)
		},
	}
}

// TestDrainFinishesAcceptedWork: Drain must complete queued and running
// jobs, then reject new submits with ErrDraining.
func TestDrainFinishesAcceptedWork(t *testing.T) {
	q := NewQueue(slowEngine(), 1, 0)
	blocker, _, err := q.Submit(Request{Kind: KindSynth, N: blockerScale + 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := q.Submit(Request{Kind: KindSynth, N: 4})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range []*Job{blocker, queued} {
		if v := q.View(j, false); v.Status != StatusDone {
			t.Errorf("job %s after drain: %s (%s), want done", j.ID, v.Status, v.Error)
		}
	}
	if _, _, err := q.Submit(Request{Kind: KindSynth, N: 4}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err=%v, want ErrDraining", err)
	}
}

// TestDrainTimeoutCancelsOutstanding: an expired drain context cancels
// queued and running jobs instead of waiting forever.
func TestDrainTimeoutCancelsOutstanding(t *testing.T) {
	q := NewQueue(slowEngine(), 1, 0)
	// A search at a blocker scale holds the one worker: its first
	// evaluation sleeps in the source generator well past the drain
	// deadline, so the search cannot go stale and legitimately finish
	// before the cancellation lands (a plain n=16 search occasionally
	// did, flaking this test).
	running, _, err := q.Submit(Request{Kind: KindSearch, N: blockerScale + 1, Budget: 1000000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := q.Submit(Request{Kind: KindSynth, N: 8})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: err=%v, want deadline exceeded", err)
	}
	if v := q.View(running, false); v.Status != StatusCanceled {
		t.Errorf("running job after cut-short drain: %s, want canceled", v.Status)
	}
	if v := q.View(queued, false); v.Status != StatusCanceled {
		t.Errorf("queued job after cut-short drain: %s, want canceled", v.Status)
	}
}

// TestCancelQueuedJob: cancelling a job that never started is immediate
// and the worker never runs it.
func TestCancelQueuedJob(t *testing.T) {
	q := NewQueue(slowEngine(), 1, 0)
	if _, _, err := q.Submit(Request{Kind: KindSynth, N: blockerScale + 1}); err != nil {
		t.Fatal(err)
	}
	queued, _, err := q.Submit(Request{Kind: KindSynth, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-queued.Done():
	case <-time.After(time.Second):
		t.Fatal("cancelled queued job did not finish immediately")
	}
	if v := q.View(queued, false); v.Status != StatusCanceled {
		t.Errorf("status %s, want canceled", v.Status)
	}
	// A fresh identical submit must NOT coalesce onto the canceled job.
	again, deduped, err := q.Submit(Request{Kind: KindSynth, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if deduped || again.ID == queued.ID {
		t.Errorf("submit after cancel coalesced onto dead job %s", queued.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = q.Drain(ctx)
}

// TestPriorityOrdersQueue: with one worker pinned, a later high-priority
// job must run before earlier low-priority ones.
func TestPriorityOrdersQueue(t *testing.T) {
	q := NewQueue(slowEngine(), 1, 0)
	if _, _, err := q.Submit(Request{Kind: KindSynth, N: blockerScale + 1}); err != nil {
		t.Fatal(err)
	}
	low, _, err := q.Submit(Request{Kind: KindSynth, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	high, _, err := q.Submit(Request{Kind: KindSynth, N: 8, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-high.Done()
	hv := q.View(high, false)
	lv := q.View(low, false)
	if lv.Status == StatusDone && lv.Finished.Before(*hv.Finished) {
		t.Errorf("low-priority job finished before high-priority one")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = q.Drain(ctx)
}

// TestJobDeadlineFails: a job whose own deadline expires mid-run fails
// with the deadline error rather than hanging.
func TestJobDeadlineFails(t *testing.T) {
	q := NewQueue(slowEngine(), 1, 0)
	j, _, err := q.Submit(Request{Kind: KindSearch, N: 16, Budget: 1000000, Seed: 5, DeadlineMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("deadlined job never finished")
	}
	if v := q.View(j, false); v.Status != StatusFailed || v.Error != "deadline exceeded" {
		t.Errorf("status %s (%q), want failed with deadline exceeded", v.Status, v.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = q.Drain(ctx)
}

// TestSynthKeyEscapesPassSpecs: the single-flight key must distinguish
// a pass list containing "; " inside one spec from the same text split
// across two specs — the canonical Config rendering escapes the joiner.
func TestSynthKeyEscapesPassSpecs(t *testing.T) {
	r1 := Request{Kind: KindSynth, Passes: []string{"constprop; cse"}}
	r2 := Request{Kind: KindSynth, Passes: []string{"constprop", "cse"}}
	if err := r1.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r1.key("") == r2.key("") {
		t.Errorf("distinct pass lists %q and %q share a job key: submits would coalesce across requests",
			r1.Passes, r2.Passes)
	}
}

// diffSrc is a small inline program the parse-memo tests submit.
const diffSrc = "uint8 x;\nuint8 y;\nuint8 out;\nvoid main() {\n  uint8 d;\n  if (x > y) { d = x - y; } else { d = y - x; }\n  out = d;\n}\n"

// idleQueue is a one-worker queue over slowEngine, drained when the
// test ends.
func idleQueue(t *testing.T) *Queue {
	q := NewQueue(slowEngine(), 1, 0)
	t.Cleanup(func() { q.Drain(context.Background()) })
	return q
}

// submitWait submits a request and waits for its job to finish.
func submitWait(t *testing.T, q *Queue, req Request) *Job {
	t.Helper()
	j, _, err := q.Submit(req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s not terminal after 60s", j.ID)
	}
	if v := q.View(j, false); v.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", j.ID, v.Status, v.Error)
	}
	return j
}

// memoSize reads how many texts the queue's parse memo holds.
func memoSize(q *Queue) int {
	q.parsed.mu.Lock()
	defer q.parsed.mu.Unlock()
	return len(q.parsed.fps)
}

// TestRetainedRingsStaySmall: a cache-hit synth job publishes a handful
// of events, so the terminal jobs the queue retains keep rings sized to
// those events, not full streamRingSize rings.
func TestRetainedRingsStaySmall(t *testing.T) {
	q := idleQueue(t)
	for i := 0; i < maxRetainedJobs+76; i++ {
		submitWait(t, q, Request{Kind: KindSynth, Source: diffSrc})
	}
	if st := q.Engine().Stats(); st.PointComputed != 1 {
		t.Errorf("point computed %d times, want 1: the rest must be cache hits", st.PointComputed)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) != maxRetainedJobs {
		t.Fatalf("queue retains %d jobs, want %d", len(q.jobs), maxRetainedJobs)
	}
	events := 0
	for _, j := range q.jobs {
		j.stream.mu.Lock()
		events += cap(j.stream.ring)
		j.stream.mu.Unlock()
	}
	const perJob = 16
	ev := int(unsafe.Sizeof(obs.Event{}))
	if got, limit := events*ev, perJob*ev*len(q.jobs); got > limit {
		t.Errorf("retained rings hold %d bytes (%d event slots), want <= %d (%d per job)",
			got, events, limit, perJob)
	}
}

// TestParseMemoKeepsProgram: a second submit of the same inline text is
// served from the parse memo, so the engine keeps the program the first
// submit registered instead of a re-parsed copy.
func TestParseMemoKeepsProgram(t *testing.T) {
	q := idleQueue(t)
	first := submitWait(t, q, Request{Kind: KindSynth, Source: diffSrc})
	// Only Submit, on this goroutine, writes the engine's source table.
	sources := q.Engine().Sources
	prog := sources[first.sourceFP]
	if prog == nil {
		t.Fatalf("source %s not registered", first.sourceFP)
	}
	second := submitWait(t, q, Request{Kind: KindSynth, Source: diffSrc})
	if second.sourceFP != first.sourceFP || second.Key != first.Key {
		t.Errorf("identical text resolved to %s/%s, want %s/%s",
			second.sourceFP, second.Key, first.sourceFP, first.Key)
	}
	if sources[first.sourceFP] != prog {
		t.Error("second identical submit replaced the registered program")
	}
}

// TestParseMemoWhitespaceVariant: a text differing only in whitespace
// misses the memo (its text hash differs) but parses to the same
// program, so it resolves to the same fingerprint and job key.
func TestParseMemoWhitespaceVariant(t *testing.T) {
	q := idleQueue(t)
	a := submitWait(t, q, Request{Kind: KindSynth, Source: diffSrc})
	b := submitWait(t, q, Request{Kind: KindSynth, Source: "\n\t" + diffSrc + "  \n"})
	if a.sourceFP != b.sourceFP || a.Key != b.Key {
		t.Errorf("whitespace variant resolved to %s/%s, want %s/%s", b.sourceFP, b.Key, a.sourceFP, a.Key)
	}
	if n := memoSize(q); n != 2 {
		t.Errorf("memo holds %d texts, want 2", n)
	}
}

// TestParseMemoSkipsErrors: an unparsable source is refused with 400 on
// every submit, and the memo never stores it.
func TestParseMemoSkipsErrors(t *testing.T) {
	srv, q := testServer(t, 1)
	for i := 0; i < 2; i++ {
		if code := httpJSON(t, "POST", srv.URL+"/v1/jobs", Request{Kind: KindSynth, Source: "uint8 a; void main("}, nil); code != http.StatusBadRequest {
			t.Errorf("bad source, submit %d: HTTP %d, want 400", i+1, code)
		}
	}
	if n := memoSize(q); n != 0 {
		t.Errorf("memo holds %d texts after two failed parses, want 0", n)
	}
}

// TestParseMemoBounded: the memo never holds more than maxSourceMemo
// texts, however many distinct sources are submitted.
func TestParseMemoBounded(t *testing.T) {
	q := &Queue{eng: &explore.Engine{}}
	most := 0
	for i := 0; i < maxSourceMemo+10; i++ {
		r := Request{Source: fmt.Sprintf("uint16 out;\nvoid main() { out = %d; }\n", i)}
		if _, err := q.resolveSource(&r); err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		n := memoSize(q)
		if n > maxSourceMemo {
			t.Fatalf("after %d sources the memo holds %d texts, want <= %d", i+1, n, maxSourceMemo)
		}
		most = max(most, n)
	}
	if most != maxSourceMemo {
		t.Errorf("memo peaked at %d texts, want %d: distinct sources were not remembered", most, maxSourceMemo)
	}
}
