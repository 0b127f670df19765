package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"sparkgo/internal/obs"
	"sparkgo/internal/service"
)

// remoteClient is the runner for the -remote mode of cmd/explore: it
// ships jobs to a sparkd daemon instead of running them in-process. The
// flags keep their local meaning; only the execution venue changes —
// and with it the caches, which the daemon shares across every client.
type remoteClient struct {
	base string // http://host:port
	http *http.Client
	// follow streams each submitted job's SSE feed to stderr alongside
	// the poll loop (the -follow flag).
	follow bool
}

func newRemoteClient(addr string, follow bool) *remoteClient {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &remoteClient{
		base:   strings.TrimRight(addr, "/"),
		http:   &http.Client{Timeout: 30 * time.Second},
		follow: follow,
	}
}

// do round-trips one API call, decoding the JSON payload into out. The
// context cancels the call (Ctrl-C mid-poll aborts the client; the
// daemon keeps running its job — DELETE it to stop the work too).
func (c *remoteClient) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("%s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// run submits one job and polls it to a terminal status, reporting
// queue progress on stderr. Context cancellation (Ctrl-C) stops polling,
// cancels the remote job, and returns the context error. The submit
// itself ignores cancellation: a POST cut short after the daemon
// accepted it would leave a job running that nobody cancels.
func (c *remoteClient) run(ctx context.Context, req service.Request) (service.JobView, error) {
	var job service.JobView
	if err := c.do(context.WithoutCancel(ctx), "POST", "/v1/jobs", req, &job); err != nil {
		return job, err
	}
	if job.Deduped {
		fmt.Fprintf(os.Stderr, "remote: job %s deduped onto an in-flight identical request\n", job.ID)
	} else {
		fmt.Fprintf(os.Stderr, "remote: job %s submitted\n", job.ID)
	}
	var followed chan struct{}
	if c.follow {
		followed = make(chan struct{})
		go func() {
			defer close(followed)
			c.followEvents(ctx, job.ID)
		}()
	}
	defer func() {
		if followed == nil {
			return
		}
		// The stream closes itself on the terminal event; bound the wait
		// so a wedged connection cannot hold the client open.
		select {
		case <-followed:
		case <-time.After(3 * time.Second):
		}
	}()
	for !job.Status.Terminal() {
		select {
		case <-ctx.Done():
			return job, c.abandon(job.ID, ctx.Err())
		case <-time.After(200 * time.Millisecond):
		}
		if err := c.do(ctx, "GET", "/v1/jobs/"+job.ID, nil, &job); err != nil {
			// Cancellation can also surface as a transport error on the
			// in-flight poll; the abandoned job still must be cancelled.
			if ctx.Err() != nil {
				return job, c.abandon(job.ID, ctx.Err())
			}
			return job, err
		}
	}
	return job, jobErr(job)
}

// stats reads the daemon's /v1/stats.
func (c *remoteClient) stats(ctx context.Context) (service.StatsView, error) {
	var st service.StatsView
	return st, c.do(ctx, "GET", "/v1/stats", nil, &st)
}

// followEvents consumes GET /v1/jobs/{id}/events and prints each frame
// as a live line on stderr: lifecycle transitions, per-batch progress,
// and search trajectory improvements as they are found. It returns when
// the daemon closes the stream (terminal status) or the context dies.
// Best-effort by design: a follow failure degrades to plain polling
// rather than failing the job.
func (c *remoteClient) followEvents(ctx context.Context, jobID string) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return
	}
	// Not c.http: its 30-second overall timeout is right for API calls
	// and wrong for a stream that lives as long as the job.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "remote: follow: %v\n", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "remote: follow: HTTP %d\n", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev obs.Event
			if json.Unmarshal([]byte(data), &ev) == nil {
				printEventLine(jobID, ev)
			}
			data = ""
		}
	}
}

// printEventLine renders one stream event as a human line.
func printEventLine(jobID string, ev obs.Event) {
	switch ev.Type {
	case obs.TypeJob:
		if ev.Err != "" {
			fmt.Fprintf(os.Stderr, "remote: [%s] %s: %s\n", jobID, ev.Op, ev.Err)
		} else {
			fmt.Fprintf(os.Stderr, "remote: [%s] %s\n", jobID, ev.Op)
		}
	case obs.TypeProgress:
		fmt.Fprintf(os.Stderr, "remote: [%s] progress %d/%d\n", jobID, ev.Done, ev.Total)
	case obs.TypeTrajectory:
		fmt.Fprintf(os.Stderr, "remote: [%s] eval %d score %.1f latency %d  %s\n",
			jobID, ev.Evaluation, ev.Score, ev.Cycles, ev.Config)
	case obs.TypeRound:
		fmt.Fprintf(os.Stderr, "remote: [%s] round %d complete\n", jobID, ev.Round)
	}
}

// abandon best-effort-cancels a remote job the interrupted client will
// never collect, so the daemon doesn't keep running it. The DELETE gets
// a fresh context — the caller's is the one that just died.
func (c *remoteClient) abandon(jobID string, cause error) error {
	cancelCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	_ = c.do(cancelCtx, "DELETE", "/v1/jobs/"+jobID, nil, nil)
	return interrupted(jobID, cause)
}
