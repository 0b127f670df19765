package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sparkgo/internal/explore"
	"sparkgo/internal/service"
)

// venue is one place runJobs can send its jobs, with the queue that
// ends up running them so the test can check what happened there.
type venue struct {
	name string
	r    runner
	q    *service.Queue
}

// venues returns a fresh in-process runner and a fresh remote runner
// talking to an in-process sparkd, over identically configured engines.
func venues(t *testing.T) []venue {
	t.Helper()
	eng := func() *explore.Engine { return &explore.Engine{Workers: 2, SimTrials: 1} }
	local := newLocalRunner(eng())
	q := service.NewQueue(eng(), 1, 0)
	srv := httptest.NewServer(service.NewServer(q))
	t.Cleanup(func() {
		srv.Close()
		q.Drain(context.Background())
		local.q.Drain(context.Background())
	})
	return []venue{
		{"local", local, local.q},
		{"remote", newRemoteClient(srv.URL, false), q},
	}
}

// recorder keeps the views a runner hands back.
type recorder struct {
	runner
	views []service.JobView
}

func (r *recorder) run(ctx context.Context, req service.Request) (service.JobView, error) {
	v, err := r.runner.run(ctx, req)
	r.views = append(r.views, v)
	return v, err
}

// statsTitle opens the statistics section, the only venue-specific
// part of a run's output.
const statsTitle = "== exploration cache statistics"

// runBoth runs reqs in both venues and checks they print the same
// result tables (job lines aside, which carry IDs and wall times) and
// a complete cache table. It returns the recorded views per venue.
func runBoth(t *testing.T, reqs []service.Request) map[string][]service.JobView {
	t.Helper()
	views := map[string][]service.JobView{}
	var results []string
	for _, v := range venues(t) {
		rec := &recorder{runner: v.r}
		var out bytes.Buffer
		if err := runJobs(context.Background(), rec, reqs, &out, false); err != nil {
			t.Fatalf("%s: %v\n%s", v.name, err, out.String())
		}
		views[v.name] = rec.views
		text := out.String()
		i := strings.Index(text, statsTitle)
		if i < 0 {
			t.Fatalf("%s: no statistics table:\n%s", v.name, text)
		}
		checkCacheTable(t, v.name, text[i:])
		var kept []string
		for _, line := range strings.Split(text[:i], "\n") {
			if !strings.HasPrefix(line, "job ") {
				kept = append(kept, line)
			}
		}
		results = append(results, strings.Join(kept, "\n"))
	}
	if results[0] != results[1] {
		t.Errorf("venues print different results:\n--- local\n%s\n--- remote\n%s", results[0], results[1])
	}
	return views
}

// checkCacheTable asserts every layer row shows memory, disk, remote
// and computed counts.
func checkCacheTable(t *testing.T, name, stats string) {
	t.Helper()
	lines := strings.Split(stats, "\n")
	if len(lines) < 2 || !strings.Contains(lines[1], "memory hits  disk hits  remote hits  computed") {
		t.Fatalf("%s: cache table header wrong:\n%s", name, stats)
	}
	for _, layer := range []string{"point", "frontend stage", "midend stage", "backend stage"} {
		found := false
		for _, line := range lines {
			rest, ok := strings.CutPrefix(line, layer+" ")
			if !ok {
				continue
			}
			found = true
			if f := strings.Fields(rest); len(f) != 4 {
				t.Errorf("%s: %s row has %d counts, want 4: %q", name, layer, len(f), line)
			} else {
				for _, c := range f {
					if _, err := strconv.Atoi(c); err != nil {
						t.Errorf("%s: %s row count %q: %v", name, layer, c, err)
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: cache table has no %s row:\n%s", name, layer, stats)
		}
	}
}

// TestSweepVenues: a generator sweep prints the same tables in both
// venues, and its points are exactly what the engine computes directly.
func TestSweepVenues(t *testing.T) {
	reqs, err := sweepRequests("4", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	views := runBoth(t, reqs)
	want := (&explore.Engine{Workers: 2, SimTrials: 1}).Sweep(
		explore.Grid([]int{4}, explore.Variants(), []int{0, 8}, true))
	for name, vs := range views {
		if len(vs) != 1 {
			t.Fatalf("%s: %d jobs, want 1", name, len(vs))
		}
		got := vs[0].Result.Points
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
		}
		for i, p := range want {
			w := service.PointView{
				Config: p.Config.String(), Cycles: p.Cycles, Latency: p.Latency,
				CritPath: p.CritPath, Area: p.Area, Muxes: p.Muxes, FUs: p.FUs,
				Rounds: p.Rounds, Err: p.Err,
			}
			if got[i] != w {
				t.Errorf("%s: point %d = %+v, want %+v", name, i, got[i], w)
			}
		}
	}
}

// TestSourceSweepVenues: -src runs one sweep job per file, each with
// its own frontier, and configs named by content fingerprint.
func TestSourceSweepVenues(t *testing.T) {
	dir := t.TempDir()
	progs := map[string]string{
		"a.c": "uint8 a;\nuint8 b;\nuint8 out;\nvoid main() {\n  uint8 s;\n  s = a + b;\n  if (s < a) { s = 255; }\n  out = s;\n}\n",
		"b.c": "uint8 x[4];\nuint8 out;\nvoid main() {\n  uint8 s;\n  int i;\n  s = 0;\n  for (i = 0; i < 4; i = i + 1) { s = s + x[i]; }\n  out = s;\n}\n",
	}
	var paths []string
	for _, name := range []string{"a.c", "b.c"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(progs[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	reqs, err := sweepRequests("", strings.Join(paths, ","), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("%d requests for two files, want 2", len(reqs))
	}
	for name, vs := range runBoth(t, reqs) {
		if len(vs) != 2 {
			t.Fatalf("%s: %d jobs, want 2", name, len(vs))
		}
		for _, v := range vs {
			res := v.Result
			if res.SourceFingerprint == "" || len(res.Points) == 0 || len(res.Frontier) == 0 {
				t.Fatalf("%s: job %s result incomplete: %+v", name, v.ID, res)
			}
			for _, p := range res.Points {
				if !strings.HasPrefix(p.Config, "src="+res.SourceFingerprint+" ") {
					t.Errorf("%s: config %q not named by fingerprint %s", name, p.Config, res.SourceFingerprint)
				}
			}
		}
		if vs[0].Result.SourceFingerprint == vs[1].Result.SourceFingerprint {
			t.Errorf("%s: two programs share a fingerprint", name)
		}
	}
}

// TestSearchVenues: a search prints the same trajectory and summary in
// both venues.
func TestSearchVenues(t *testing.T) {
	reqs, err := searchRequests("hill", "weighted", 4, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, vs := range runBoth(t, reqs) {
		sv := vs[0].Result.Search
		if sv == nil || sv.Best == nil || len(sv.Trajectory) == 0 || sv.Evaluations > 8 {
			t.Errorf("%s: search result %+v", name, sv)
		}
	}
}

// TestCanceledRun: a context done before the run starts cancels the
// submitted job and fails the run in both venues.
func TestCanceledRun(t *testing.T) {
	reqs, err := sweepRequests("16,32", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range venues(t) {
		var out bytes.Buffer
		err := runJobs(ctx, v.r, reqs, &out, false)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", v.name, err)
		}
		if err := v.q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := v.q.Stats().Queue; st.Submitted != 1 || st.Canceled != 1 || st.Done != 0 {
			t.Errorf("%s: queue %+v, want one canceled job", v.name, st)
		}
	}
}
