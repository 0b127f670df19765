// Command explore drives the design-space exploration engine and
// regenerates every experiment table of the reproduction (DESIGN.md §4:
// E1–E17 and the A-series ablations). With no arguments it runs every
// experiment; pass experiment ids (e.g. "E12 A E15 E17") to select.
//
// The -sweep and -search modes run sparkd's own sweep and search jobs
// (internal/service): in this process on a private job queue, or on a
// daemon with -remote. Either way the same jobs run and the same tables
// print.
//
// -sweep evaluates (preset × pass toggles × unroll bounds × buffer
// sizes) and prints the point cloud in grid order, the latency/area
// Pareto frontier, and the cache and queue statistics (memory vs disk
// vs remote hits vs computed, per stage):
//
//	explore -sweep [-workers 8] [-sizes 4,8,16,32] [-sim 1] [-csv]
//	        [-cache-dir .explore-cache] [-remote-cache http://host:8341]
//	        [-src a.c,b.c]
//
// -src replaces the built-in ILD generator with user programs parsed
// from files: each file is its own sweep job with its own frontier, and
// its configs are named by the program's content fingerprint.
// -cache-dir persists stage artifacts and evaluated points on disk, so
// repeated sweeps — including across process restarts — reuse earlier
// synthesis work; -remote-cache chains a sparkd daemon's /v1/blobs API
// behind the local tiers, so a cold machine reuses the fleet's
// artifacts; -cache-max-bytes garbage-collects the cache directory once
// after the run (oldest artifacts first, including those under retired
// schema versions).
//
// -search replaces the exhaustive grid with an adaptive search over the
// same axes (pass orderings × motion knockouts × unroll bounds ×
// chaining) and prints its improvement trajectory, summary, and the
// same statistics:
//
//	explore -search [-strategy hill|genetic|anneal] [-budget 64] [-deadline 30s]
//	        [-objective latency|area|weighted] [-seed 1] [-n 16]
//
// -deadline is a hard limit for a sweep and a soft budget for a search,
// which stops between batches and still reports its best design.
// -remote host:port ships the jobs to a sparkd daemon instead (the
// engine flags then belong to the daemon), and -follow streams each
// job's live events to stderr.
//
// Performance is measured by the repository's benchmark (BENCHMARK.json,
// run with `bash bench/run.sh`), which drives these same engines through
// in-process sparkd daemons and the experiment suite. In-process -sweep
// and -search runs accept -cpuprofile/-memprofile for pprof capture;
// profile remote runs with sparkd -pprof instead.
//
// Usage:
//
//	explore [-n 16] [-csv] [E1 E2 ... A E15 E16]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"sparkgo/internal/experiments"
	"sparkgo/internal/explore"
	"sparkgo/internal/report"
	"sparkgo/internal/service"
)

func main() {
	n := flag.Int("n", 16, "ILD buffer size for the stage/ablation experiments")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	sweep := flag.Bool("sweep", false, "run a standalone design-space sweep and print its frontier")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = one per CPU)")
	sizes := flag.String("sizes", "4,8,16,32", "comma-separated ILD buffer sizes for -sweep")
	sim := flag.Int("sim", 1, "per-config rtlsim latency trials for -sweep (0 = report FSM states)")
	cacheDir := flag.String("cache-dir", "", "disk-backed exploration cache directory (persists across runs)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "garbage-collect the cache directory down to this many bytes after the run (0 = never)")
	remoteCache := flag.String("remote-cache", "", "base URL of a sparkd daemon whose /v1/blobs API backs the local cache (e.g. http://host:8341)")
	srcFiles := flag.String("src", "", "comma-separated source files to sweep instead of the ILD generator")
	search := flag.Bool("search", false, "run an adaptive design-space search instead of an exhaustive sweep")
	strategy := flag.String("strategy", "hill", "search strategy: hill (steepest-ascent + restarts), genetic, or anneal (simulated annealing)")
	objective := flag.String("objective", "weighted", "search objective: latency, area, or weighted")
	budget := flag.Int("budget", 64, "search budget: max distinct configurations evaluated (0 = unbounded)")
	deadline := flag.Duration("deadline", 0, "wall-clock limit: a hard deadline per -sweep job, a soft budget for -search (0 = unbounded)")
	seed := flag.Int64("seed", 1, "search RNG seed (same seed, same trajectory)")
	remote := flag.String("remote", "", "ship -sweep/-search jobs to a sparkd daemon at this address instead of running locally")
	follow := flag.Bool("follow", false, "with -remote: subscribe to the job's live event stream (SSE) and print progress/trajectory lines")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the -sweep/-search run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the -sweep/-search run to this file")
	flag.Parse()

	// Mode flags that would silently lose to one another are conflicts:
	// -search runs the adaptive engine over the built-in generator at -n
	// only, so combining it with the sweep-only inputs must fail loudly
	// rather than search the wrong program.
	if *search {
		if *sweep {
			fmt.Fprintln(os.Stderr, "-search and -sweep are mutually exclusive")
			os.Exit(1)
		}
		if *srcFiles != "" {
			fmt.Fprintln(os.Stderr, "-search does not support -src yet: the search space is the built-in ILD generator at -n")
			os.Exit(1)
		}
	}

	if *remote != "" && !*sweep && !*search {
		fmt.Fprintln(os.Stderr, "-remote requires -sweep or -search (experiments run locally)")
		os.Exit(1)
	}
	if *follow && *remote == "" {
		fmt.Fprintln(os.Stderr, "-follow streams a daemon job's events and requires -remote")
		os.Exit(1)
	}

	// Profiling captures this process, so it pairs with the local sweep
	// and search modes only: under -remote the work runs in the daemon
	// (profile that with sparkd -pprof), and the experiment tables have
	// no profiling story worth a flag.
	if *cpuProfile != "" || *memProfile != "" {
		if !*sweep && !*search {
			fmt.Fprintln(os.Stderr, "-cpuprofile/-memprofile require -sweep or -search")
			os.Exit(1)
		}
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "-cpuprofile/-memprofile profile this process; with -remote the work runs in sparkd (use its -pprof listener)")
			os.Exit(1)
		}
	}

	// Ctrl-C (and SIGTERM) cancel in-flight sweeps and searches at the
	// next evaluation-batch boundary instead of running to completion;
	// a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep || *search {
		mode := "sweep"
		var reqs []service.Request
		var err error
		if *search {
			mode = "search"
			reqs, err = searchRequests(*strategy, *objective, *n, *budget, *deadline, *seed)
		} else {
			reqs, err = sweepRequests(*sizes, *srcFiles, *deadline)
		}
		var r runner
		gcDir := *cacheDir
		if *remote != "" {
			// The engine flags belong to the daemon under -remote.
			r, gcDir = newRemoteClient(*remote, *follow), ""
		} else {
			r = newLocalRunner(&explore.Engine{Workers: *workers, SimTrials: *sim, CacheDir: *cacheDir, RemoteCache: *remoteCache})
		}
		var stopProf func() error
		if err == nil {
			stopProf, err = startProfiles(*cpuProfile, *memProfile)
		}
		if err == nil {
			err = runJobs(ctx, r, reqs, os.Stdout, *csv)
			if err == nil {
				err = runCacheGC(gcDir, *cacheMaxBytes)
			}
			if perr := stopProf(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", mode, err)
			os.Exit(1)
		}
		return
	}

	type exp struct {
		id  string
		run func() (*report.Table, error)
	}
	all := []exp{
		{"E1", experiments.E1Fig02Unroll},
		{"E2", experiments.E2Fig03ConstPropParallel},
		{"E3", experiments.E3Fig04Chaining},
		{"E4", experiments.E4Fig05Trails},
		{"E5", experiments.E5E6WireVariables},
		{"E7", func() (*report.Table, error) { return experiments.E7Fig10Behavior(40) }},
		{"E8", func() (*report.Table, error) { return experiments.E8toE11Stages(*n) }},
		{"E12", func() (*report.Table, error) {
			return experiments.E12Fig15SingleCycle([]int{4, 8, 16, 32}, 10)
		}},
		{"E13", func() (*report.Table, error) { return experiments.E13Baseline([]int{4, 8, 16}) }},
		{"E14", func() (*report.Table, error) { return experiments.E14Fig16Natural(8) }},
		{"E15", func() (*report.Table, error) { return experiments.E15Exploration(*workers) }},
		{"E16", func() (*report.Table, error) { return experiments.E16PassOrder(*n, *workers) }},
		{"E17", func() (*report.Table, error) { return experiments.E17AdaptiveSearch(*n, *workers) }},
		{"A", func() (*report.Table, error) { return experiments.Ablations(*n) }},
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.id] &&
			!(want["E5"] && e.id == "E6") && !(want["E8"] && e.id == "E11") {
			continue
		}
		t, err := e.run()
		if t != nil {
			printTable(os.Stdout, *csv, t)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runCacheGC applies the -cache-max-bytes budget to the exploration
// cache directory after a run: artifacts are evicted oldest-access
// first, retired schema versions included, until the directory fits.
func runCacheGC(cacheDir string, maxBytes int64) error {
	if cacheDir == "" || maxBytes <= 0 {
		return nil
	}
	eng := &explore.Engine{CacheDir: cacheDir}
	st, err := eng.CacheGC(maxBytes)
	if err != nil {
		return fmt.Errorf("cache gc: %w", err)
	}
	fmt.Printf("cache gc: %d of %d artifacts evicted (%d -> %d bytes, budget %d)\n",
		st.RemovedFiles, st.ScannedFiles, st.ScannedBytes, st.RemainingBytes, maxBytes)
	if len(st.Kinds) > 0 {
		t := report.New("cache gc per kind",
			"kind", "scanned files", "scanned bytes", "evicted files", "evicted bytes")
		for _, k := range st.Kinds {
			t.Add(k.Kind, k.ScannedFiles, k.ScannedBytes, k.RemovedFiles, k.RemovedBytes)
		}
		fmt.Println(t)
	}
	return nil
}

// parseSizes turns the -sizes flag into a size list.
func parseSizes(sizeList string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad buffer size %q", f)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no buffer sizes given")
	}
	return sizes, nil
}
