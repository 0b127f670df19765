package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"sparkgo/internal/explore"
	"sparkgo/internal/obs"
	"sparkgo/internal/service"
)

// daemon is one in-process sparkd behind an httptest server.
type daemon struct {
	id    int
	eng   *explore.Engine
	queue *service.Queue
	srv   *httptest.Server
	// detach unsubscribes the run's recorder (traced daemons only).
	detach func()
}

// startDaemon builds one sparkd wired as cmd/sparkd's run wires it: an
// engine with an event bus over a metrics registry, a queue with one
// worker per CPU and no cache budget, and the HTTP API with the same
// server timeouts. cacheDir, when set, gives the engine its disk tier.
// A traced daemon has the run's recorder subscribed to its bus
// before any job runs. Keep this in step with cmd/sparkd.
func (s *runner) startDaemon(sim int, cacheDir string, traced bool) *daemon {
	eng := &explore.Engine{SimTrials: sim, CacheDir: cacheDir}
	eng.Obs = obs.NewBus(obs.NewMetrics(obs.NewRegistry()))
	s.mu.Lock()
	s.daemons++
	d := &daemon{id: s.daemons, eng: eng}
	s.mu.Unlock()
	if traced {
		d.detach = s.rec.attach(eng.Obs, d.id)
	}
	d.queue = service.NewQueue(eng, runtime.GOMAXPROCS(0), 0)
	d.srv = httptest.NewUnstartedServer(service.NewServer(d.queue))
	d.srv.Config.ReadHeaderTimeout = 10 * time.Second
	d.srv.Config.IdleTimeout = 120 * time.Second
	d.srv.Start()
	return d
}

// stopDaemon drains the daemon's queue, shuts its server and drops the
// client's connections to it.
func (s *runner) stopDaemon(d *daemon) error {
	if d.detach != nil {
		d.detach()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.queue.Drain(ctx)
	d.srv.Close()
	s.hc.CloseIdleConnections()
	return err
}

// do runs one job the way a sparkd client does: POST /v1/jobs, follow
// the job's event stream until the daemon closes it, then GET the job.
// It returns the terminal job and the latency measured from `from`: the
// submit time in a closed loop, the due time in an open one.
func (s *runner) do(d *daemon, req service.Request, from time.Time) (service.JobView, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.JobView{}, 0, err
	}
	var sub service.JobView
	if err := s.call(http.MethodPost, d.srv.URL+"/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		return service.JobView{}, 0, err
	}
	if err := s.follow(d.srv.URL + "/v1/jobs/" + sub.ID + "/events"); err != nil {
		return service.JobView{}, 0, fmt.Errorf("job %s: %w", sub.ID, err)
	}
	var view service.JobView
	if err := s.call(http.MethodGet, d.srv.URL+"/v1/jobs/"+sub.ID, nil, http.StatusOK, &view); err != nil {
		return service.JobView{}, 0, err
	}
	lat := time.Since(from)
	view.Deduped = sub.Deduped
	if view.Status != service.StatusDone || view.Result == nil {
		return view, lat, fmt.Errorf("job %s %s: %s", view.ID, view.Status, view.Error)
	}
	return view, lat, nil
}

// call makes one JSON request and decodes the answer into out.
func (s *runner) call(method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	return nil
}

// follow reads a job's SSE stream until the daemon closes it after the
// terminal event. A stream that drops this client fails the job.
func (s *runner) follow(url string) error {
	resp, err := s.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: dropped" {
			return fmt.Errorf("event stream dropped the client")
		}
	}
	return sc.Err()
}
