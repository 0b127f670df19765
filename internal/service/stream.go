package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparkgo/internal/obs"
)

const (
	// streamRingSize bounds the per-job backlog replayed to a
	// subscriber connecting mid-run; older events fall off the front.
	streamRingSize = 256
	// streamSubBuffer is each SSE subscriber's channel buffer. A
	// consumer that falls this far behind is dropped — disconnected,
	// counted — rather than ever blocking the engine.
	streamSubBuffer = 64
	// sseHeartbeat keeps quiet streams alive through proxies.
	sseHeartbeat = 15 * time.Second
)

// streamCounters is the queue-wide SSE accounting surfaced in
// /v1/stats.
type streamCounters struct {
	opened  atomic.Int64 // subscriptions served, terminal replays included
	active  atomic.Int64 // currently subscribed
	dropped atomic.Int64 // subscribers dropped for falling behind
}

// streamSub is one live SSE subscriber.
type streamSub struct {
	ch      chan obs.Event
	dropped atomic.Bool // set before ch is closed on a slow-consumer drop
}

// jobStream is one job's event log: a bounded ring of everything
// published so far (the backlog a late subscriber replays) plus the
// live subscriber set. The ring grows by append until it holds
// streamRingSize events and only then wraps, so a job that publishes a
// handful of events (a cached synth) keeps a handful, not a full ring.
// Publishing never blocks: a subscriber whose buffer is full is dropped
// on the spot. The stream closes when the job reaches a terminal
// status, ending every subscriber's stream after the final event.
type jobStream struct {
	counters *streamCounters

	mu     sync.Mutex
	seq    uint64
	ring   []obs.Event // circular once full, at most streamRingSize long
	start  int         // index of the oldest event once the ring wraps
	subs   map[*streamSub]struct{}
	closed bool
}

func newJobStream(c *streamCounters) *jobStream {
	return &jobStream{counters: c, subs: map[*streamSub]struct{}{}}
}

// publish stamps the event with the stream's own sequence (SSE event
// ids are per job, not bus-global), appends it to the ring, and fans
// it out without blocking.
func (s *jobStream) publish(ev obs.Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.seq++
	ev.Seq = s.seq
	if len(s.ring) < streamRingSize {
		s.ring = append(s.ring, ev)
	} else {
		s.ring[s.start] = ev
		s.start = (s.start + 1) % streamRingSize
	}
	for sub := range s.subs {
		select {
		case sub.ch <- ev:
		default:
			delete(s.subs, sub)
			sub.dropped.Store(true)
			close(sub.ch)
			s.counters.dropped.Add(1)
			s.counters.active.Add(-1)
		}
	}
}

// close ends the stream: every subscriber's channel is closed (after
// whatever is already buffered drains) and later subscribers get the
// backlog plus an immediate end-of-stream.
func (s *jobStream) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for sub := range s.subs {
		delete(s.subs, sub)
		close(sub.ch)
		s.counters.active.Add(-1)
	}
}

// subscribe atomically snapshots the backlog and registers a live
// subscriber, so no event is missed or duplicated between the two. On
// a closed stream it returns the backlog and a nil subscriber.
func (s *jobStream) subscribe() (backlog []obs.Event, sub *streamSub, closed bool) {
	if s == nil {
		return nil, nil, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	backlog = make([]obs.Event, len(s.ring))
	for i := range backlog {
		backlog[i] = s.ring[(s.start+i)%len(s.ring)]
	}
	s.counters.opened.Add(1)
	if s.closed {
		return backlog, nil, true
	}
	sub = &streamSub{ch: make(chan obs.Event, streamSubBuffer)}
	s.subs[sub] = struct{}{}
	s.counters.active.Add(1)
	return backlog, sub, false
}

// unsubscribe removes a live subscriber; idempotent with the drop and
// close paths, which may have removed it already.
func (s *jobStream) unsubscribe(sub *streamSub) {
	if s == nil || sub == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		close(sub.ch)
		s.counters.active.Add(-1)
	}
}

// publishJob routes one event to both planes: the engine-wide bus
// (metrics, global subscribers) and the job's own SSE stream. Each
// plane stamps its own sequence number on its copy.
func (q *Queue) publishJob(j *Job, ev obs.Event) {
	ev.Job = j.ID
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	q.eng.Obs.Publish(ev)
	j.stream.publish(ev)
}

// writeSSE renders one event as a Server-Sent Events frame: the
// per-job sequence as the id, the event type as the SSE event name,
// and the JSON-encoded event as the data line.
func writeSSE(w io.Writer, ev obs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, "id: "+strconv.FormatUint(ev.Seq, 10)+"\nevent: "+ev.Type+"\ndata: "); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n\n")
	return err
}

// jobEvents handles GET /v1/jobs/{id}/events: the job's live event
// stream as SSE. A subscriber connecting mid-run receives the
// buffered backlog first, then live events; the stream ends after the
// terminal job event (completion or cancel). A consumer that cannot
// keep up is disconnected with a final "dropped" event and counted in
// /v1/stats — the engine never waits for a reader.
func (s *Server) jobEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errStreamingUnsupported)
		return
	}
	backlog, sub, closed := job.stream.subscribe()
	if sub != nil {
		defer job.stream.unsubscribe(sub)
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	for _, ev := range backlog {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	fl.Flush()
	if closed {
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				if sub.dropped.Load() {
					_, _ = io.WriteString(w, "event: dropped\ndata: {\"reason\":\"slow consumer\"}\n\n")
					fl.Flush()
				}
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
