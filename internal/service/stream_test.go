package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparkgo/internal/obs"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	name string
	ev   obs.Event
}

// readSSE consumes an event stream until the server closes it (the
// terminal-status close) and returns every parsed frame. Heartbeat
// comments are skipped.
func readSSE(t *testing.T, body *bufio.Scanner) []sseFrame {
	t.Helper()
	var out []sseFrame
	var name, data string
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if name != "" || data != "" {
				f := sseFrame{name: name}
				if data != "" {
					_ = json.Unmarshal([]byte(data), &f.ev)
				}
				out = append(out, f)
			}
			name, data = "", ""
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		}
	}
	if err := body.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// openSSE connects to a job's event stream and fails the test on a
// non-200 answer.
func openSSE(t *testing.T, base, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("open SSE: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("open SSE: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	return resp
}

// TestSSEBacklogAndLiveTrajectory subscribes to a search job while it
// is still queued behind a blocker: the backlog (the submitted event)
// replays on connect, then the live run streams through the same
// connection — start, per-batch progress, trajectory improvements —
// and the stream closes by itself after the terminal event. This pins
// the satellite fix too: search progress advances mid-run instead of
// jumping 0→budget at the end.
func TestSSEBacklogAndLiveTrajectory(t *testing.T) {
	srv, _ := testServer(t, 1)
	base := srv.URL

	blocker := submit(t, base, Request{Kind: KindSynth, N: blockerScale + 1})
	search := submit(t, base, Request{Kind: KindSearch, N: 4, Budget: 16, Seed: 3})

	resp := openSSE(t, base, search.ID)
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewScanner(resp.Body))

	if len(frames) < 4 {
		t.Fatalf("got %d frames, want at least submitted/started/progress/terminal", len(frames))
	}
	var lastSeq uint64
	for _, f := range frames {
		if f.ev.Seq <= lastSeq {
			t.Fatalf("event ids not strictly increasing: %d after %d", f.ev.Seq, lastSeq)
		}
		lastSeq = f.ev.Seq
		if f.ev.Job != search.ID {
			t.Errorf("event for job %q on %s's stream", f.ev.Job, search.ID)
		}
	}
	if frames[0].name != obs.TypeJob || frames[0].ev.Op != "submitted" {
		t.Errorf("first frame = %s/%s, want the replayed submitted event", frames[0].name, frames[0].ev.Op)
	}
	ops := map[string]int{}
	progress, trajectory, maxDone := 0, 0, 0
	for _, f := range frames {
		switch f.name {
		case obs.TypeJob:
			ops[f.ev.Op]++
		case obs.TypeProgress:
			progress++
			if f.ev.Done > maxDone {
				maxDone = f.ev.Done
			}
		case obs.TypeTrajectory:
			trajectory++
			if f.ev.Config == "" || f.ev.Evaluation == 0 {
				t.Errorf("trajectory frame missing config/evaluation: %+v", f.ev)
			}
		}
	}
	if ops["started"] != 1 {
		t.Errorf("started events = %d, want 1 (ops %v)", ops["started"], ops)
	}
	if ops["done"] != 1 {
		t.Errorf("done events = %d, want 1 (ops %v)", ops["done"], ops)
	}
	if progress < 2 || maxDone == 0 {
		t.Errorf("progress frames = %d (max done %d): search ran invisibly", progress, maxDone)
	}
	if trajectory == 0 {
		t.Error("no trajectory frames: search improvements did not stream")
	}
	last := frames[len(frames)-1]
	if last.name != obs.TypeJob || last.ev.Op != "done" {
		t.Errorf("stream ended on %s/%s, want the terminal done event", last.name, last.ev.Op)
	}

	if v := waitTerminal(t, base, blocker.ID, 60*time.Second); v.Status != StatusDone {
		t.Fatalf("blocker finished %s", v.Status)
	}
}

// TestSSECloseOnCancel: cancelling a queued job ends its event stream
// with the canceled event.
func TestSSECloseOnCancel(t *testing.T) {
	srv, _ := testServer(t, 1)
	base := srv.URL

	blocker := submit(t, base, Request{Kind: KindSynth, N: blockerScale + 1})
	victim := submit(t, base, Request{Kind: KindSynth, N: 5})

	resp := openSSE(t, base, victim.ID)
	defer resp.Body.Close()
	if code := httpJSON(t, "DELETE", base+"/v1/jobs/"+victim.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	frames := readSSE(t, bufio.NewScanner(resp.Body))
	if len(frames) == 0 {
		t.Fatal("empty stream")
	}
	last := frames[len(frames)-1]
	if last.name != obs.TypeJob || last.ev.Op != "canceled" {
		t.Errorf("stream ended on %s/%s, want canceled", last.name, last.ev.Op)
	}

	waitTerminal(t, base, blocker.ID, 60*time.Second)
}

// TestJobStreamRing: the ring grows with the events a job publishes and
// wraps only at streamRingSize, so a short stream keeps a short ring and
// a long one replays exactly its last streamRingSize events in order.
func TestJobStreamRing(t *testing.T) {
	var c streamCounters
	short := newJobStream(&c)
	for i := 0; i < 3; i++ {
		short.publish(obs.Event{Type: obs.TypeProgress, Done: i + 1})
	}
	if n := cap(short.ring); n > 4 {
		t.Errorf("3-event stream: ring capacity %d, want <= 4", n)
	}

	long := newJobStream(&c)
	const published = 300
	for i := 0; i < published; i++ {
		long.publish(obs.Event{Type: obs.TypeProgress, Done: i + 1})
	}
	long.close()
	backlog, sub, closed := long.subscribe()
	if sub != nil || !closed {
		t.Fatal("closed stream registered a subscriber")
	}
	if len(backlog) != streamRingSize {
		t.Fatalf("backlog holds %d events, want %d", len(backlog), streamRingSize)
	}
	for i, ev := range backlog {
		want := uint64(published - streamRingSize + 1 + i)
		if ev.Seq != want || uint64(ev.Done) != want {
			t.Fatalf("backlog[%d] = seq %d done %d, want %d", i, ev.Seq, ev.Done, want)
		}
	}
}

// TestSSEAfterTerminalReplaysBacklog: a subscriber connecting after the
// job finished still gets the full event history, then an immediate
// end of stream.
func TestSSEAfterTerminalReplaysBacklog(t *testing.T) {
	srv, _ := testServer(t, 1)
	base := srv.URL

	job := submit(t, base, Request{Kind: KindSynth, N: 4})
	waitTerminal(t, base, job.ID, 60*time.Second)

	resp := openSSE(t, base, job.ID)
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewScanner(resp.Body))
	if len(frames) < 3 {
		t.Fatalf("replay returned %d frames", len(frames))
	}
	if first := frames[0]; first.ev.Op != "submitted" {
		t.Errorf("replay starts at %s/%s", first.name, first.ev.Op)
	}
	if last := frames[len(frames)-1]; last.ev.Op != "done" {
		t.Errorf("replay ends at %s/%s", last.name, last.ev.Op)
	}
}

// TestSlowSubscriberDropped: a subscriber that stops reading is cut
// loose — its channel closes, the publisher never blocks — and the
// drop is counted in /v1/stats.
func TestSlowSubscriberDropped(t *testing.T) {
	srv, q := testServer(t, 1)
	base := srv.URL

	blocker := submit(t, base, Request{Kind: KindSynth, N: blockerScale + 1})
	j, err := q.Get(blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, sub, closed := j.stream.subscribe()
	if closed || sub == nil {
		t.Fatal("stream closed before the job finished")
	}
	// Publish past the subscriber buffer without draining; the publish
	// loop must return (never block) and drop the subscriber.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < streamSubBuffer+16; i++ {
			q.publishJob(j, obs.Event{Type: obs.TypeProgress, Done: i + 1, Total: streamSubBuffer + 16})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	drained := 0
	for range sub.ch {
		drained++
	}
	if !sub.dropped.Load() {
		t.Error("slow subscriber was not marked dropped")
	}
	if drained == 0 || drained > streamSubBuffer {
		t.Errorf("drained %d buffered events, want 1..%d", drained, streamSubBuffer)
	}

	var sv StatsView
	if code := httpJSON(t, "GET", base+"/v1/stats", nil, &sv); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if sv.Events.SubscribersDropped < 1 {
		t.Errorf("stats subscribers_dropped = %d, want >= 1", sv.Events.SubscribersDropped)
	}
	if sv.Events.StreamsOpened < 1 || sv.Events.BusPublished == 0 {
		t.Errorf("event stats not accounted: %+v", sv.Events)
	}

	waitTerminal(t, base, blocker.ID, 60*time.Second)
}

// TestMetricsEndpoint: after real jobs, /metrics serves the Prometheus
// exposition with per-stage latency histograms, tier counters, job
// lifecycle counters and the simulator's instruction mix, and /healthz
// and /v1/stats agree. A repeated synth is served by the point cache
// from memory; a synth differing only in a backend knob shares the
// frontend artifact.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, 1)
	base := srv.URL

	for _, req := range []Request{
		{Kind: KindSynth, N: 4},
		{Kind: KindSynth, N: 4},
		{Kind: KindSynth, N: 4, NoChaining: true},
	} {
		job := submit(t, base, req)
		if v := waitTerminal(t, base, job.ID, 60*time.Second); v.Status != StatusDone {
			t.Fatalf("job %+v finished %s", req, v.Status)
		}
	}

	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if code := httpJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK ||
		health.Status != "ok" || health.UptimeSeconds < 0 {
		t.Errorf("healthz: HTTP %d %+v", code, health)
	}
	var sv StatsView
	if code := httpJSON(t, "GET", base+"/v1/stats", nil, &sv); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if sv.Engine.PointMemHits+sv.Engine.PointDiskHits < 1 {
		t.Errorf("repeated synth missed the point cache: %+v", sv.Engine)
	}
	if sv.Engine.FrontendMemHits < 1 {
		t.Errorf("backend-knob synth did not share the frontend: %+v", sv.Engine)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	var types []string
	samples := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			types = append(types, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			samples[line[:i]] = line[i+1:]
		}
	}
	for _, want := range []string{
		"# TYPE " + obs.MetricStageLatency + " histogram",
		"# TYPE " + obs.MetricTierOps + " counter",
	} {
		if !slices.Contains(types, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Labels render key-sorted: disposition before stage, op before tier.
	for _, series := range []string{
		obs.MetricStageLatency + `_count{disposition="computed",stage="frontend"}`,
		obs.MetricStageLatency + `_count{disposition="mem",stage="point"}`,
		obs.MetricStageLatency + `_bucket{disposition="computed",stage="point",le="+Inf"}`,
		obs.MetricTierOps + `{op="put",tier="mem"}`,
		obs.MetricTierOps + `{op="hit",tier="mem"}`,
		obs.MetricSimCycles + "_count",
		obs.MetricSimInsns + `{class="packed"}`,
		obs.MetricSimInsns + `{class="wide"}`,
	} {
		if v, ok := samples[series]; !ok || v == "0" {
			t.Errorf("metrics %s = %q, want a nonzero count", series, v)
		}
	}
	for _, event := range []string{"submitted", "done"} {
		if series := obs.MetricJobs + `{event="` + event + `"}`; samples[series] != "3" {
			t.Errorf("metrics %s = %q, want 3", series, samples[series])
		}
	}
	// The runtime's heap readings, taken at scrape time. The GC may not
	// have completed a cycle yet, so its counter need only be present.
	for _, rt := range []struct {
		name, typ string
		nonzero   bool
	}{
		{"go_heap_objects_bytes", "gauge", true},
		{"go_memory_total_bytes", "gauge", true},
		{"go_gc_cycles_total", "counter", false},
	} {
		if want := "# TYPE " + rt.name + " " + rt.typ; !slices.Contains(types, want) {
			t.Errorf("metrics missing %q", want)
		}
		v, ok := samples[rt.name]
		if n, err := strconv.ParseUint(v, 10, 64); !ok || err != nil || (rt.nonzero && n == 0) {
			t.Errorf("metrics %s = %q, want a count", rt.name, v)
		}
	}
}
