// Command bench is sparkgo's end-to-end benchmark. It drives in-process
// sparkd daemons over HTTP, and the paper's experiment suite in
// process, checks every result against testdata/reference.json, and
// prints one JSON result line as the last line of standard output:
//
//	bench --workload sweep_cold --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the timed
// phase half untraced and half with a recorder on every daemon's event
// bus, replays the workload's configurations once through each layer's
// public functions, writes the spans to .bench_build/, and reports the
// per-layer metrics instead. README.md describes the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//	bench --update testdata/reference.json
//
// recomputes every reference output and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	started := time.Now()
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := flag.Int("seconds", 25, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: report end-to-end metrics; 1: traced run, report per-layer metrics")
	update := flag.String("update", "", "recompute every reference output, write them to this file and exit")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	if *update != "" {
		if err := writeReference(*update); err != nil {
			fmt.Fprintf(os.Stderr, "bench: update: %v\n", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: want --workload {%s} --seed N --seconds N>=1 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	const outDir = ".bench_build"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	opt := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		warmup:   3,
		primes:   3,
		work:     work,
		ref:      ref,
		started:  started,
	}
	if opt.trace {
		opt.spansOut = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
	}
	res, sum, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sum.write(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration // length of the timed phase
	trace    bool
	warmup   int // discarded jobs before the timed phase
	// primes is how many times a workload builds its starting state;
	// setup_s counts the median build.
	primes   int
	maxJobs  int    // caps the jobs of each closed-loop half; 0 = time only
	work     string // scratch directory for disk caches
	spansOut string // traced runs write their spans here; "" = nowhere
	ref      *reference
	started  time.Time // process start, where setup_s begins
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
// README.md records why each was chosen.
var workloads = map[string]func(*runner) error{
	"sweep_cold":  sweepCold,
	"sweep_resim": sweepResim,
	"synth_mix":   synthMix,
	"paper_suite": paperSuite,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles its result line and the
// summary written to standard error.
func run(opt options) (*result, *summary, error) {
	s, err := execute(opt)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: s.attempted, Failed: s.failed, Correct: s.correct()}
	if opt.trace {
		res.Metrics = s.perLayer()
		if f := res.Metrics["replay.unattributed_frac"].Value; f > 0.1 {
			fmt.Fprintf(os.Stderr, "bench: warning: %.0f%% of the replay is outside every layer span; instrumentation is missing\n", 100*f)
		}
		if err := s.writeSpans(); err != nil {
			return nil, nil, err
		}
	} else {
		res.Metrics = s.endToEnd()
	}
	return res, s.summary(), nil
}

// execute runs opt's workload on a new runner.
func execute(opt options) (*runner, error) {
	s := newRunner(opt)
	defer s.hc.CloseIdleConnections()
	if err := workloads[opt.workload](s); err != nil {
		return nil, err
	}
	if opt.trace {
		s.check(s.rec.err())
	}
	return s, nil
}
