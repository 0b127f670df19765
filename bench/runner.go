package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runner is one benchmark run: its options, the HTTP client every job
// goes through, and everything measured so far.
type runner struct {
	opt options
	hc  *http.Client

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string // the first failure messages, for the report
	// phases holds the timed jobs: [0] untraced, [1] traced (traced runs
	// only).
	phases [2]phase
	// setupPrime holds each build of the workload's starting state (a
	// primed cache, a primed daemon); setupJob holds each per-job set-up
	// (a fresh daemon, a cache tree); timedAt is when the timed phase
	// began.
	setupPrime []time.Duration
	setupJob   []time.Duration
	timedAt    time.Time
	daemons    int

	rec        *recorder   // traced runs only
	tracedJobs []jobSample // jobs whose daemon events the recorder holds
	spans      spanLog
	// layer holds the per-layer values a traced run measures before it
	// ends (replay totals, experiment shares), keyed by metric name;
	// perLayer adds the bus-derived ones.
	layer map[string]float64
}

// phase is one timed half of a run.
type phase struct {
	jobs []jobSample
	// cpu is the process's user+system CPU while the phase's jobs ran:
	// summed over the jobs of a closed loop, set-up between them left
	// out; the whole phase of an open loop.
	cpu time.Duration
}

// jobSample is one completed job as the client saw it.
type jobSample struct {
	daemon  int
	id      string
	deduped bool
	traced  bool          // ran on a daemon the run's recorder listens to
	at      time.Time     // submit time (closed loop) or due time (open loop)
	lat     time.Duration // from at to the decoded result
	lag     time.Duration // open loop: how late the generator sent the request
	cpu     time.Duration // closed loop: process CPU while the job ran
}

// maxConns bounds the client's connections per daemon: load comes from
// one process with at most one connection per CPU.
var maxConns = runtime.NumCPU()

func newRunner(opt options) *runner {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	s := &runner{
		opt:   opt,
		hc:    &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		layer: map[string]float64{},
	}
	if opt.trace {
		s.rec = &recorder{}
	}
	return s
}

// record accounts one job. A nil phase marks a job outside the timed
// phase (warm-up, priming), which counts toward attempted and failed
// but not toward latency.
func (s *runner) record(p *phase, js jobSample, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failLocked(err)
		return
	}
	if p != nil {
		p.jobs = append(p.jobs, js)
		p.cpu += js.cpu
	}
	if js.traced {
		s.tracedJobs = append(s.tracedJobs, js)
	}
}

// check accounts one correctness check made outside a job (a frontier
// verification, a replayed configuration).
func (s *runner) check(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failLocked(err)
	}
}

// correct reports whether the run did something and nothing failed.
func (s *runner) correct() bool { return s.failed == 0 && s.attempted > 0 }

func (s *runner) failLocked(err error) {
	s.failed++
	if len(s.errs) < 10 {
		s.errs = append(s.errs, err.Error())
	}
}

// addSetup accounts set-up work done through the program's API outside
// the timed phase: a build of the starting state, or a job's own.
func (s *runner) addSetup(perJob bool, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if perJob {
		s.setupJob = append(s.setupJob, d)
	} else {
		s.setupPrime = append(s.setupPrime, d)
	}
}

// setupSeconds is all untimed work before one timed job: everything from
// process start to the start of the timed phase (reference decode,
// starting state, warm-ups), with the starting state counted once at
// the median of its opt.primes builds, plus the median per-job set-up.
func (s *runner) setupSeconds() float64 {
	before := s.timedAt.Sub(s.opt.started)
	for _, d := range s.setupPrime {
		before -= d
	}
	return before.Seconds() + medianSeconds(s.setupPrime) + medianSeconds(s.setupJob)
}

func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// timed runs the timed phase. An untraced run spends all of
// opt.seconds untraced; a traced run spends the first half untraced and
// the second half traced, so trace.overhead_frac compares the two in
// one process.
func (s *runner) timed(body func(p *phase, traced bool, d time.Duration)) {
	d, halves := s.opt.seconds, []bool{false}
	if s.opt.trace {
		d, halves = d/2, []bool{false, true}
	}
	s.timedAt = time.Now()
	for i, traced := range halves {
		body(&s.phases[i], traced, d)
	}
}

// closedLoop runs one client's jobs back to back: warmups discarded
// jobs, then jobs until the phase's time (or opt.maxJobs) runs out. job
// runs one job and records it on p (nil for a warm-up).
func (s *runner) closedLoop(warmups int, job func(p *phase, traced bool)) {
	for range warmups {
		job(nil, false)
	}
	s.timed(func(p *phase, traced bool, d time.Duration) {
		end := time.Now().Add(d)
		for n := 0; n == 0 || time.Now().Before(end) && (s.opt.maxJobs == 0 || n < s.opt.maxJobs); n++ {
			job(p, traced)
		}
	})
}

// tempDir makes a fresh scratch directory inside the run's work
// directory.
func (s *runner) tempDir() (string, error) {
	return os.MkdirTemp(s.opt.work, "cache-")
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = msOf(j.lat)
	}
	return out
}

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics are what a user of sparkd or the paper suite waits
// for and pays; BENCHMARK.json declares the same list.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"job_ms_p50", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"rss_peak_mb", "MB"},
}

func (s *runner) endToEnd() map[string]metric {
	p := &s.phases[0]
	vals := map[string]float64{
		"setup_s":        s.setupSeconds(),
		"job_ms_p50":     quantile(p.latencies(), 0.5),
		"cpu_ms_per_job": msOf(p.cpu) / float64(max(len(p.jobs), 1)),
		"rss_peak_mb":    peakRSSMB(),
	}
	return withUnits(endToEndMetrics, vals)
}

func withUnits(specs []metricSpec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, m := range specs {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return v / 1024
}

// procField returns the value on the first line of a /proc file that
// starts with key, or "" when there is none.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// machine records what a run ran on, so numbers from different hosts
// are not compared by accident.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"revision"`
}

func thisMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				m.Revision = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					m.Revision += "+dirty"
				}
			}
		}
	}
	return m
}

// summary is the run summary written to standard error: the machine
// record, the sample counts and the values that are not metrics.
type summary struct {
	Machine     machine  `json:"machine"`
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	TimedJobs   int      `json:"timed_jobs"`
	JobMSP90    float64  `json:"bench.job_ms_p90"`
	JobMSP99    float64  `json:"bench.job_ms_p99"`
	GenLagMSP99 float64  `json:"bench.gen_lag_ms_p99"`
	ToTimedS    float64  `json:"start_to_timed_s"`
	SetupPrimeS float64  `json:"setup_prime_median_s"`
	SetupJobS   float64  `json:"setup_per_job_median_s"`
	WallS       float64  `json:"wall_s"`
	Errors      []string `json:"errors,omitempty"`
}

func (s *runner) summary() *summary {
	p := &s.phases[0]
	lags := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		lags[i] = msOf(j.lag)
	}
	return &summary{
		Machine:     thisMachine(),
		Workload:    s.opt.workload,
		Seed:        s.opt.seed,
		Trace:       s.opt.trace,
		TimedJobs:   len(p.jobs) + len(s.phases[1].jobs),
		JobMSP90:    quantile(p.latencies(), 0.9),
		JobMSP99:    quantile(p.latencies(), 0.99),
		GenLagMSP99: quantile(lags, 0.99),
		ToTimedS:    s.timedAt.Sub(s.opt.started).Seconds(),
		SetupPrimeS: medianSeconds(s.setupPrime),
		SetupJobS:   medianSeconds(s.setupJob),
		WallS:       time.Since(s.opt.started).Seconds(),
		Errors:      s.errs,
	}
}

func (r *summary) write(w io.Writer) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(w, "bench: report: %v\n", err)
		return
	}
	fmt.Fprintf(w, "bench: report %s\n", b)
}
