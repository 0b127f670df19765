package main

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sparkgo/internal/core"
	"sparkgo/internal/experiments"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/report"
	"sparkgo/internal/service"
)

// sweepReq is the job both sweep workloads submit: 39 configurations,
// the six coordination variants × unroll bounds {0, 8} at n ∈ {4, 8,
// 16}, plus the classical baseline per size.
var sweepReq = service.Request{Kind: service.KindSweep, Sizes: []int{4, 8, 16}, Classical: true}

// sweepGrid is the configuration space a sweep request over sizes
// expands to under the daemon's default unroll bounds.
func sweepGrid(sizes []int) []explore.Config {
	return explore.Grid(sizes, explore.Variants(), []int{0, 8}, true)
}

// sweepCold: every job runs on a fresh daemon with an empty disk cache,
// so synthesis compute and the cache write path do the work.
func sweepCold(s *runner) error {
	s.closedLoop(s.opt.warmup, func(p *phase, traced bool) {
		t0 := time.Now()
		dir, err := s.tempDir()
		if err != nil {
			s.record(p, jobSample{}, err)
			return
		}
		defer os.RemoveAll(dir)
		d := s.startDaemon(1, dir, traced)
		s.addSetup(true, time.Since(t0))
		s.sweepJob(p, d, sweepReq, 1, traced)
	})
	s.verifyFrontier()
	if s.opt.trace {
		return s.replay(sweepReplay(sweepReq.Sizes), 1)
	}
	return nil
}

// sweepResim: every job runs at 64 simulation trials on a fresh daemon
// over a copy of a disk cache primed at 1 trial. Every point misses
// (simulation depth is part of the point key) and every stage artifact
// revives from disk, so the work is disk reads, hash checks, netlist
// decode, simulator compile and a 64-trial run, with no synthesis.
func sweepResim(s *runner) error {
	var primed string
	for range s.opt.primes {
		dir, err := s.tempDir()
		if err != nil {
			return err
		}
		t0 := time.Now()
		s.sweepJob(nil, s.startDaemon(1, dir, false), sweepReq, 1, false)
		s.addSetup(false, time.Since(t0))
		if primed != "" {
			os.RemoveAll(primed)
		}
		primed = dir
	}
	s.closedLoop(s.opt.warmup, func(p *phase, traced bool) {
		t0 := time.Now()
		dir, err := s.tempDir()
		if err == nil {
			err = linkTree(primed, dir)
		}
		if err != nil {
			s.record(p, jobSample{}, err)
			return
		}
		defer os.RemoveAll(dir)
		d := s.startDaemon(64, dir, traced)
		s.addSetup(true, time.Since(t0))
		s.sweepJob(p, d, sweepReq, 64, traced)
	})
	if s.opt.trace {
		return s.replay(sweepReplay(sweepReq.Sizes), 64)
	}
	return nil
}

// linkTree recreates src's directory tree under dst with every file
// hard-linked rather than copied, which keeps the per-job set-up small.
// It relies on the disk cache never changing a file in place (it writes
// a new file and renames it over the old), so no job can alter src.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}

// sweepJob runs a sweep request on d as one closed-loop job, checks
// the result and stops d.
func (s *runner) sweepJob(p *phase, d *daemon, req service.Request, sim int, traced bool) {
	at, cpu0 := time.Now(), cpuTime()
	v, lat, err := s.do(d, req, at)
	cpu := cpuTime() - cpu0
	if err == nil {
		err = s.opt.ref.checkSweep(v, req.Sizes, sim)
	}
	if serr := s.stopDaemon(d); err == nil {
		err = serr
	}
	s.record(p, jobSample{daemon: d.id, id: v.ID, at: at, lat: lat, cpu: cpu, traced: traced}, err)
}

// verifyFrontier synthesizes every frontier configuration of the sweep
// with the one-shot flow and checks the RTL against behavioral
// interpretation of the input program on 64 random vectors: interp is
// the oracle that does not share the flow under test.
func (s *runner) verifyFrontier() {
	byName := map[string]explore.Config{}
	for _, c := range sweepGrid(sweepReq.Sizes) {
		byName[c.String()] = c
	}
	for i, name := range s.opt.ref.Frontiers[frontierKey(sweepReq.Sizes, 1)] {
		c, ok := byName[name]
		if !ok {
			s.check(fmt.Errorf("frontier config %q is not in the sweep grid", name))
			continue
		}
		res, err := core.Synthesize(ild.Program(c.N), c.Options())
		if err == nil {
			err = core.Verify(res, 64, s.opt.seed+int64(i))
		}
		if err != nil {
			err = fmt.Errorf("frontier %s: %w", name, err)
		}
		s.check(err)
	}
}

// sweepReplay lists a sweep's configurations for the traced replay.
func sweepReplay(sizes []int) []replayConfig {
	var out []replayConfig
	for _, c := range sweepGrid(sizes) {
		out = append(out, generatorReplay(c))
	}
	return out
}

func generatorReplay(c explore.Config) replayConfig {
	return replayConfig{key: c.String(), name: fmt.Sprintf("ild%d", c.N), src: ild.SourceFig10(c.N), opt: c.Options()}
}

// synthConfig is one point of the synth_mix space: an ILD source form
// at buffer size n, sent inline, under one set of synth knobs.
type synthConfig struct {
	natural   bool
	n         int
	maxUnroll int
	classical bool
	noChain   bool
	src       string // the inline source text
}

func (c synthConfig) String() string {
	form := "fig10"
	if c.natural {
		form = "natural"
	}
	out := fmt.Sprintf("%s n=%d preset=%s", form, c.n, c.preset())
	if c.maxUnroll > 0 {
		out += fmt.Sprintf(" maxunroll=%d", c.maxUnroll)
	}
	if c.noChain {
		out += " nochain"
	}
	return out
}

func (c synthConfig) preset() core.Preset {
	if c.classical {
		return core.ClassicalASIC
	}
	return core.MicroprocessorBlock
}

// fullCoordination reports whether c is the paper's design on the Fig 10
// source.
func (c synthConfig) fullCoordination() bool {
	return !c.natural && fullCoordination(c.engineConfig(""))
}

func (c synthConfig) request() service.Request {
	return service.Request{Kind: service.KindSynth, Source: c.src, Preset: c.preset().String(),
		MaxUnroll: c.maxUnroll, NoChaining: c.noChain}
}

// engineConfig is the engine configuration the daemon derives from c's
// request once the source is registered under its fingerprint.
func (c synthConfig) engineConfig(sourceFP string) explore.Config {
	return explore.Config{Source: sourceFP, Preset: c.preset(), MaxUnroll: c.maxUnroll, NoChaining: c.noChain}
}

func (c synthConfig) replay() replayConfig {
	return replayConfig{key: c.String(), name: "inline", src: c.src,
		opt: core.Options{Preset: c.preset(), MaxUnroll: c.maxUnroll, NoChaining: c.noChain}}
}

// synthSpace returns the synth_mix space split into the hot set (n ∈
// {4, 8, 16, 32} × form × preset × chaining, default unroll bound, 32
// configurations) and the cold rest (n ∈ 4..40 × form × unroll bound
// {0, 8, 16} × preset × chaining, 856 configurations). Both are ordered
// by form, preset, unroll bound and chaining, then n, so configurations
// of similar cost sit together. No configuration of the space fails.
func synthSpace() (hot, cold []synthConfig) {
	hotN := map[int]bool{4: true, 8: true, 16: true, 32: true}
	for _, natural := range []bool{false, true} {
		for _, classical := range []bool{false, true} {
			for _, mu := range []int{0, 8, 16} {
				for _, noChain := range []bool{false, true} {
					for n := 4; n <= 40; n++ {
						src := ild.SourceFig10(n)
						if natural {
							src = ild.SourceNatural(n)
						}
						c := synthConfig{natural: natural, n: n, maxUnroll: mu, classical: classical, noChain: noChain, src: src}
						if mu == 0 && hotN[n] {
							hot = append(hot, c)
						} else {
							cold = append(cold, c)
						}
					}
				}
			}
		}
	}
	return hot, cold
}

// coldDraws returns the order in which a run's cold requests draw the
// cold set, without replacement: a seeded low-discrepancy (golden-ratio)
// walk over the set's cost-sorted order. Any configuration is as likely
// to be drawn as with a random permutation, but any prefix of the walk
// takes each cost class in proportion. Of the 856 cold configurations,
// the 46 that fully unroll the natural form's loop at n > 16 cost
// 0.1–1.1 s each against a 2 ms median, so with a random permutation
// how many of them a run drew moved cpu_ms_per_job with the seed.
func coldDraws(rng *rand.Rand, n int) []int {
	const phi = 0.6180339887498949 // (√5 − 1) / 2
	drawn := make([]bool, n)
	out := make([]int, 0, n)
	u := rng.Float64()
	for i := 0; len(out) < n; i++ {
		_, x := math.Modf(u + float64(i)*phi)
		if j := int(x * float64(n)); !drawn[j] {
			drawn[j] = true
			out = append(out, j)
		}
	}
	return out
}

const (
	synthRate     = 200  // mean requests per second, open loop
	synthColdFrac = 0.05 // share of requests drawn from the cold set
	synthReplay   = 16   // cold configurations the traced replay covers
)

// synthMix: one long-lived daemon with a disk cache serves synth jobs
// carrying inline source, as remote explore clients send them, with
// Poisson arrivals. Most requests hit a hot set primed in set-up; the
// cold rest compute and hold a worker and a client connection while hot
// requests queue.
func synthMix(s *runner) error {
	hot, cold := synthSpace()
	var d *daemon
	for range s.opt.primes {
		if d != nil {
			if err := s.stopDaemon(d); err != nil {
				return err
			}
		}
		t0 := time.Now()
		dir, err := s.tempDir()
		if err != nil {
			return err
		}
		d = s.startDaemon(1, dir, false)
		for _, c := range hot {
			s.synthJob(nil, d, c, time.Now(), 0, false)
		}
		s.addSetup(false, time.Since(t0))
	}

	rng := rand.New(rand.NewSource(s.opt.seed))
	coldOrder := coldDraws(rng, len(cold))
	for i := 0; i < s.opt.warmup; i++ {
		s.synthJob(nil, d, hot[rng.Intn(len(hot))], time.Now(), 0, false)
	}
	replayed := slices.Clone(hot)
	s.timed(func(p *phase, traced bool, dur time.Duration) {
		var sched []dueJob
		sched, coldOrder = synthSchedule(rng, dur, hot, cold, coldOrder)
		if traced {
			d.detach = s.rec.attach(d.eng.Obs, d.id)
			for _, j := range sched {
				if !slices.Contains(replayed, j.cfg) && len(replayed) < len(hot)+synthReplay {
					replayed = append(replayed, j.cfg)
				}
			}
		}
		s.openLoop(p, d, sched, traced)
	})
	if err := s.stopDaemon(d); err != nil {
		return err
	}
	if s.opt.trace {
		cfgs := make([]replayConfig, len(replayed))
		for i, c := range replayed {
			cfgs[i] = c.replay()
		}
		return s.replay(cfgs, 1)
	}
	return nil
}

// dueJob is one open-loop request: when it is due, relative to the
// phase start, and what it asks for.
type dueJob struct {
	at  time.Duration
	cfg synthConfig
}

// synthSchedule lays out one phase's requests as independent clients
// send them: Poisson arrivals at synthRate, each request drawn from the
// cold set with probability synthColdFrac and from the hot set
// otherwise. A cold draw takes the next configuration of coldOrder, so
// cold draws never repeat. It returns the schedule and the unused rest
// of coldOrder.
func synthSchedule(rng *rand.Rand, dur time.Duration, hot, cold []synthConfig, coldOrder []int) ([]dueJob, []int) {
	var out []dueJob
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / synthRate * float64(time.Second))
		if at >= dur {
			return out, coldOrder
		}
		c := hot[rng.Intn(len(hot))]
		if rng.Float64() < synthColdFrac && len(coldOrder) > 0 {
			c, coldOrder = cold[coldOrder[0]], coldOrder[1:]
		}
		out = append(out, dueJob{at: at, cfg: c})
	}
}

// openLoop sends the schedule from one client connection per CPU: each
// request goes out when due or, when every connection is busy, as soon
// as one frees; its latency runs from the due time.
func (s *runner) openLoop(p *phase, d *daemon, sched []dueJob, traced bool) {
	cpu0 := cpuTime()
	defer func() { p.cpu = cpuTime() - cpu0 }()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				time.Sleep(time.Until(due))
				s.synthJob(p, d, sched[i].cfg, due, time.Since(due), traced)
			}
		}()
	}
	wg.Wait()
}

// synthJob runs one synth request on d and checks its point.
func (s *runner) synthJob(p *phase, d *daemon, c synthConfig, due time.Time, lag time.Duration, traced bool) {
	v, lat, err := s.do(d, c.request(), due)
	if err == nil {
		err = s.opt.ref.checkSynth(v, c)
	}
	s.record(p, jobSample{daemon: d.id, id: v.ID, deduped: v.Deduped, at: due, lat: lat, lag: lag, traced: traced}, err)
}

// experiment is one entry of the paper suite.
type experiment struct {
	id  string
	run func() (*report.Table, error)
}

// suite is what cmd/explore runs with no arguments and its default
// flags (-n 16, -workers 0): E1–E17 and the ablations.
var suite = []experiment{
	{"E1", experiments.E1Fig02Unroll},
	{"E2", experiments.E2Fig03ConstPropParallel},
	{"E3", experiments.E3Fig04Chaining},
	{"E4", experiments.E4Fig05Trails},
	{"E5", experiments.E5E6WireVariables},
	{"E7", func() (*report.Table, error) { return experiments.E7Fig10Behavior(40) }},
	{"E8", func() (*report.Table, error) { return experiments.E8toE11Stages(16) }},
	{"E12", func() (*report.Table, error) { return experiments.E12Fig15SingleCycle([]int{4, 8, 16, 32}, 10) }},
	{"E13", func() (*report.Table, error) { return experiments.E13Baseline([]int{4, 8, 16}) }},
	{"E14", func() (*report.Table, error) { return experiments.E14Fig16Natural(8) }},
	{"E15", func() (*report.Table, error) { return experiments.E15Exploration(0) }},
	{"E16", func() (*report.Table, error) { return experiments.E16PassOrder(16, 0) }},
	{"E17", func() (*report.Table, error) { return experiments.E17AdaptiveSearch(16, 0) }},
	{"A", func() (*report.Table, error) { return experiments.Ablations(16) }},
}

// e15Req is the sweep E15 runs, submitted as a daemon job: the traced
// paper_suite run takes its bus-derived layer metrics from it, since
// the suite's own engines have no bus.
var e15Req = service.Request{Kind: service.KindSweep, Sizes: []int{4, 8, 16, 32}, Classical: true}

// paperSuite: the whole experiment suite in process, one pass per job,
// every table checked. The process's first pass is the one warm-up: it
// pays the one-time costs a reader's first run pays, inside set-up.
func paperSuite(s *runner) error {
	share := map[string]float64{}
	tracedPasses := 0
	pass := func(p *phase, traced bool) {
		t0, cpu0 := time.Now(), cpuTime()
		var errs []error
		took := make([]time.Duration, len(suite))
		for i, e := range suite {
			e0 := time.Now()
			t, err := e.run()
			took[i] = time.Since(e0)
			if err == nil {
				err = s.opt.ref.checkTable(e.id, t)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", e.id, err))
			}
			if traced {
				s.spans.add(0, "experiments."+e.id, "", e0, e0.Add(took[i]))
			}
		}
		lat, cpu := time.Since(t0), cpuTime()-cpu0
		if traced {
			tracedPasses++
			for i, e := range suite {
				share[e.id] += float64(took[i]) / float64(lat)
			}
		}
		var err error
		if len(errs) > 0 {
			err = fmt.Errorf("paper suite: %v", errs)
		}
		s.record(p, jobSample{at: t0, lat: lat, cpu: cpu}, err)
	}
	s.closedLoop(min(s.opt.warmup, 1), pass)
	if !s.opt.trace {
		return nil
	}
	for _, e := range suite {
		s.layer["experiments."+e.id+"_frac"] = share[e.id] / float64(tracedPasses)
	}
	s.sweepJob(nil, s.startDaemon(1, "", true), e15Req, 1, true)
	return s.replay(paperReplay(), 1)
}

// paperReplay lists the ILD configurations the suite synthesizes
// through the staged flow: E12's single-cycle sizes, E13's classical
// baselines and the A-series variants at n = 16.
func paperReplay() []replayConfig {
	mb := core.MicroprocessorBlock
	cfgs := []explore.Config{
		{N: 4, Preset: mb}, {N: 8, Preset: mb}, {N: 16, Preset: mb}, {N: 32, Preset: mb},
		{N: 16, Preset: mb, NoSpeculation: true}, {N: 16, Preset: mb, NoUnroll: true},
		{N: 16, Preset: mb, NoConstProp: true}, {N: 16, Preset: mb, NoChaining: true},
	}
	for _, n := range []int{4, 8, 16} {
		cfgs = append(cfgs, explore.Config{N: n, Preset: core.ClassicalASIC})
	}
	out := make([]replayConfig, len(cfgs))
	for i, c := range cfgs {
		out[i] = generatorReplay(c)
	}
	return out
}
