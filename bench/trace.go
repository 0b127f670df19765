package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"sparkgo/internal/cache"
	"sparkgo/internal/core"
	"sparkgo/internal/delay"
	"sparkgo/internal/explore"
	"sparkgo/internal/htg"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
	"sparkgo/internal/parser"
	"sparkgo/internal/pass"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// perLayerMetrics are the traced run's metrics, named by the module
// that does the work; BENCHMARK.json declares the same list. README.md
// maps each to the end-to-end metric it should move.
var perLayerMetrics = []metricSpec{
	// Replay: the workload's distinct configurations, once, through
	// each layer's public functions on one goroutine (totals).
	{"replay.configs", "count"},
	{"replay.total_ms", "ms"},
	{"replay.unattributed_frac", "frac"},
	{"parser.parse_ms", "ms"},
	{"core.frontend_ms", "ms"},
	{"pass.inline_ms", "ms"},
	{"pass.drop-uncalled_ms", "ms"},
	{"pass.speculate_ms", "ms"},
	{"pass.unroll-full_ms", "ms"},
	{"pass.const-prop_ms", "ms"},
	{"pass.const-fold_ms", "ms"},
	{"pass.copy-prop_ms", "ms"},
	{"pass.cse_ms", "ms"},
	{"pass.dce_ms", "ms"},
	{"htg.lower_ms", "ms"},
	{"core.midend_ms", "ms"},
	{"sched.schedule_ms", "ms"},
	{"rtl.build_ms", "ms"},
	{"delay.report_ms", "ms"},
	{"wire.encode_ms.frontend", "ms"},
	{"wire.encode_ms.midend", "ms"},
	{"wire.encode_ms.backend", "ms"},
	{"wire.bytes.frontend", "B"},
	{"wire.bytes.midend", "B"},
	{"wire.bytes.backend", "B"},
	{"wire.decode_ms.frontend", "ms"},
	{"wire.decode_ms.midend", "ms"},
	{"wire.decode_ms.backend", "ms"},
	{"cache.put_ms", "ms"},
	{"cache.get_ms", "ms"},
	{"interp.randenv_ms", "ms"},
	{"rtlsim.compile_ms", "ms"},
	{"rtlsim.run_ms", "ms"},
	{"rtlsim.insns", "count"},
	// Bus: the daemons' events during the traced half, per job.
	{"explore.point_ms", "ms"},
	{"explore.frontend_ms", "ms"},
	{"explore.midend_ms", "ms"},
	{"explore.backend_ms", "ms"},
	{"explore.sim_ms", "ms"},
	{"explore.point.hit_ratio", "frac"},
	{"explore.frontend.hit_ratio", "frac"},
	{"explore.midend.hit_ratio", "frac"},
	{"explore.backend.hit_ratio", "frac"},
	{"blob.mem.hits", "count"},
	{"blob.mem.misses", "count"},
	{"blob.disk.hits", "count"},
	{"blob.disk.misses", "count"},
	{"blob.disk.puts", "count"},
	{"blob.backfills", "count"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.coalesced", "count"},
	{"obs.dropped", "count"},
	// Paper suite: each experiment's share of a traced pass.
	{"experiments.E1_frac", "frac"},
	{"experiments.E2_frac", "frac"},
	{"experiments.E3_frac", "frac"},
	{"experiments.E4_frac", "frac"},
	{"experiments.E5_frac", "frac"},
	{"experiments.E7_frac", "frac"},
	{"experiments.E8_frac", "frac"},
	{"experiments.E12_frac", "frac"},
	{"experiments.E13_frac", "frac"},
	{"experiments.E14_frac", "frac"},
	{"experiments.E15_frac", "frac"},
	{"experiments.E16_frac", "frac"},
	{"experiments.E17_frac", "frac"},
	{"experiments.A_frac", "frac"},
	// Validity of the trace itself, and the tail the bounds leave out.
	{"trace.overhead_frac", "frac"},
	{"bench.job_ms_p90", "ms"},
	{"bench.job_ms_p99", "ms"},
}

// replaySpanMetrics maps each replay span to the metric summing it.
var replaySpanMetrics = map[string]string{
	"parser.parse":         "parser.parse_ms",
	"core.frontend":        "core.frontend_ms",
	"htg.lower":            "htg.lower_ms",
	"core.midend":          "core.midend_ms",
	"rtl.build":            "rtl.build_ms",
	"delay.report":         "delay.report_ms",
	"wire.encode.frontend": "wire.encode_ms.frontend",
	"wire.encode.midend":   "wire.encode_ms.midend",
	"wire.encode.backend":  "wire.encode_ms.backend",
	"wire.decode.frontend": "wire.decode_ms.frontend",
	"wire.decode.midend":   "wire.decode_ms.midend",
	"wire.decode.backend":  "wire.decode_ms.backend",
	"cache.put":            "cache.put_ms",
	"cache.get":            "cache.get_ms",
	"interp.randenv":       "interp.randenv_ms",
	"rtlsim.compile":       "rtlsim.compile_ms",
	"rtlsim.run":           "rtlsim.run_ms",
}

// recorderBuffer is each bus subscription's channel buffer. A drain
// goroutine empties it as events arrive; the buffer only has to absorb
// bursts, and any overflow fails the traced run (obs.dropped).
const recorderBuffer = 1 << 14

// busEvent is one bus event and the daemon that published it.
type busEvent struct {
	daemon int
	ev     obs.Event
}

// recorder keeps every event of the daemons it is attached to.
type recorder struct {
	mu      sync.Mutex
	events  []busEvent
	dropped int64
}

// attach subscribes to a daemon's bus; the returned detach
// unsubscribes and waits until every delivered event is kept.
func (r *recorder) attach(bus *obs.Bus, daemon int) (detach func()) {
	sub := bus.Subscribe(recorderBuffer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var got []busEvent
		for ev := range sub.C {
			got = append(got, busEvent{daemon, ev})
		}
		r.mu.Lock()
		r.events = append(r.events, got...)
		r.mu.Unlock()
	}()
	return func() {
		bus.Unsubscribe(sub)
		<-done
		r.mu.Lock()
		r.dropped += sub.Dropped()
		r.mu.Unlock()
	}
}

// fold derives the bus metrics from the recorded events. Times and
// counts are per job of jobs, the client's view of the same jobs.
func (r *recorder) fold(vals map[string]float64, jobs []jobSample) {
	type jobKey struct {
		daemon int
		id     string
	}
	type lifecycle struct{ submitted, started, done int64 }
	var (
		stageNs             = map[string]int64{}
		lookups, hits       = map[string]int{}, map[string]int{}
		simNs               int64
		tier                = map[string]int{}
		coalesced, backfill int
		life                = map[jobKey]*lifecycle{}
	)
	for _, be := range r.events {
		ev := be.ev
		switch ev.Type {
		case obs.TypeStage:
			stageNs[ev.Stage] += ev.DurationNs
			lookups[ev.Stage]++
			if ev.Disposition != obs.DispComputed {
				hits[ev.Stage]++
			}
		case obs.TypeSim:
			simNs += ev.DurationNs
		case obs.TypeTier:
			tier[ev.Tier+"."+ev.Op]++
			if ev.Op == "backfill" {
				backfill++
			}
		case obs.TypeJob:
			k := jobKey{be.daemon, ev.Job}
			if life[k] == nil {
				life[k] = &lifecycle{}
			}
			switch ev.Op {
			case "submitted":
				life[k].submitted = ev.TimeNs
			case "started":
				life[k].started = ev.TimeNs
			case "done":
				life[k].done = ev.TimeNs
			case "coalesced":
				coalesced++
			}
		}
	}
	n := float64(max(len(jobs), 1))
	for _, st := range []string{"point", "frontend", "midend", "backend"} {
		vals["explore."+st+"_ms"] = float64(stageNs[st]) / 1e6 / n
		if lookups[st] > 0 {
			vals["explore."+st+".hit_ratio"] = float64(hits[st]) / float64(lookups[st])
		}
	}
	vals["explore.sim_ms"] = float64(simNs) / 1e6 / n
	vals["blob.mem.hits"] = float64(tier["mem.hit"]) / n
	vals["blob.mem.misses"] = float64(tier["mem.miss"]) / n
	vals["blob.disk.hits"] = float64(tier["disk.hit"]) / n
	vals["blob.disk.misses"] = float64(tier["disk.miss"]) / n
	vals["blob.disk.puts"] = float64(tier["disk.put"]) / n
	vals["blob.backfills"] = float64(backfill) / n
	vals["service.coalesced"] = float64(coalesced) / n
	vals["obs.dropped"] = float64(r.dropped)

	var wait, run, overhead []float64
	for _, l := range life {
		if l.submitted != 0 && l.started != 0 && l.done != 0 {
			wait = append(wait, float64(l.started-l.submitted)/1e6)
			run = append(run, float64(l.done-l.started)/1e6)
		}
	}
	for _, j := range jobs {
		l := life[jobKey{j.daemon, j.id}]
		if j.deduped || l == nil || l.submitted == 0 || l.done == 0 {
			continue
		}
		overhead = append(overhead, msOf(j.lat-j.lag)-float64(l.done-l.submitted)/1e6)
	}
	vals["service.queue_wait_ms_p50"] = quantile(wait, 0.5)
	vals["service.queue_wait_ms_p90"] = quantile(wait, 0.9)
	vals["service.run_ms_p50"] = quantile(run, 0.5)
	vals["service.overhead_ms_p50"] = quantile(overhead, 0.5)
}

// err fails the traced run when a subscription lost events.
func (r *recorder) err() error {
	if r.dropped > 0 {
		return fmt.Errorf("trace: recorder dropped %d bus events", r.dropped)
	}
	return nil
}

// span is one timed call: replayed layer calls, experiments, client
// jobs and the daemons' stage lookups.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

func (sp span) dur() time.Duration { return time.Duration(sp.End - sp.Start) }

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(parent int, name, job string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: time.Now().UnixNano()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = time.Now().UnixNano()
}

// add records a span measured elsewhere.
func (l *spanLog) add(parent int, name, job string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start.UnixNano(), End: end.UnixNano()})
}

// replayConfig is one configuration the traced run replays through the
// layers' public functions.
type replayConfig struct {
	key  string // reference key, less the simulation depth
	name string // program name given to the parser
	src  string
	opt  core.Options
}

// replay runs each configuration once through every layer on this
// goroutine, one span per call, checks what it computed against the
// reference and folds the spans into the replay metrics.
func (s *runner) replay(cfgs []replayConfig, trials int) error {
	dir, err := s.tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir, explore.DiskSchema())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.opt.seed))
	passes := map[string]time.Duration{}
	var insns int
	var sizes [3]int
	for _, c := range cfgs {
		got, err := s.replayOne(store, rng, c, trials)
		if err == nil {
			err = s.opt.ref.checkLayers(c.key, trials, got.point)
			for _, ps := range got.passes {
				passes[ps.Name] += ps.Duration
			}
			insns += got.insns
			for i, b := range got.enc {
				sizes[i] += len(b)
			}
		}
		s.check(err)
	}

	var total, children time.Duration
	sums := map[string]time.Duration{}
	roots := map[int]bool{}
	for _, sp := range s.spans.spans {
		if sp.Name == "replay.config" {
			roots[sp.ID] = true
			total += sp.dur()
		}
	}
	for _, sp := range s.spans.spans {
		if roots[sp.Parent] {
			children += sp.dur()
			sums[sp.Name] += sp.dur()
		}
	}
	for name, m := range replaySpanMetrics {
		s.layer[m] = msOf(sums[name])
	}
	s.layer["sched.schedule_ms"] = msOf(sums["core.midend"] - sums["htg.lower"])
	for name, d := range passes {
		s.layer["pass."+name+"_ms"] = msOf(d)
	}
	s.layer["replay.configs"] = float64(len(cfgs))
	s.layer["replay.total_ms"] = msOf(total)
	if total > 0 {
		s.layer["replay.unattributed_frac"] = float64(total-children) / float64(total)
	}
	s.layer["rtlsim.insns"] = float64(insns)
	for i, kind := range artifactKinds {
		s.layer["wire.bytes."+kind] = float64(sizes[i])
	}
	return nil
}

var artifactKinds = [3]string{"frontend", "midend", "backend"}

// replayed is what replaying one configuration produced.
type replayed struct {
	point  refPoint
	passes []pass.Stat
	insns  int       // compiled simulator instructions
	enc    [3][]byte // the artifacts' wire encodings, in artifactKinds order
}

// replayOne replays one configuration. htg.lower covers the program
// clone the midend makes before lowering, so core.midend − htg.lower is
// the scheduler's share.
func (s *runner) replayOne(store *cache.Store, rng *rand.Rand, c replayConfig, trials int) (replayed, error) {
	root := s.spans.begin(0, "replay.config", c.key)
	defer s.spans.end(root)
	step := func(name string, f func() error) error {
		id := s.spans.begin(root, name, c.key)
		defer s.spans.end(id)
		if err := f(); err != nil {
			return fmt.Errorf("replay %s: %s: %w", c.key, name, err)
		}
		return nil
	}
	var (
		prog  *ir.Program
		fa    *core.FrontendArtifact
		ma    *core.MidendArtifact
		mod   *rtl.Module
		rep   delay.Report
		enc   [3][]byte
		envs  = make([]*interp.Env, trials)
		sim   *rtlsim.Program
		model = c.opt.BackendOptions().Model
	)
	if model == nil {
		model = delay.Default()
	}
	encoded := func(i int, b []byte) error {
		if b == nil {
			return fmt.Errorf("unencodable artifact")
		}
		enc[i] = b
		return nil
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"parser.parse", func() (err error) { prog, err = parser.Parse(c.name, c.src); return err }},
		{"core.frontend", func() (err error) { fa, err = core.Frontend(prog, c.opt.FrontendOptions()); return err }},
		{"wire.encode.frontend", func() error { return encoded(0, fa.Materialize()) }},
		{"htg.lower", func() error {
			work := ir.CloneProgram(fa.Program)
			_, err := htg.Lower(work, work.Main())
			return err
		}},
		{"core.midend", func() (err error) { ma, err = core.Midend(fa, c.opt.MidendOptions()); return err }},
		{"wire.encode.midend", func() error { return encoded(1, ma.Materialize()) }},
		{"rtl.build", func() (err error) { mod, err = rtl.Build(ma.Schedule); return err }},
		{"delay.report", func() error { rep = mod.Stats(model); return nil }},
		{"wire.encode.backend", func() error {
			return encoded(2, (&core.BackendArtifact{Module: mod, Stats: rep}).Materialize())
		}},
		{"cache.put", func() error {
			for i, kind := range artifactKinds {
				if err := store.Put(kind, c.key, enc[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"cache.get", func() error {
			for i, kind := range artifactKinds {
				data, ok, err := store.Get(kind, c.key)
				if err != nil {
					return err
				}
				if !ok || !bytes.Equal(data, enc[i]) {
					return fmt.Errorf("%s artifact did not round-trip", kind)
				}
			}
			return nil
		}},
		{"wire.decode.frontend", func() error { _, err := core.ReviveFrontendArtifact(enc[0]).Prog(); return err }},
		{"wire.decode.midend", func() error { _, err := core.ReviveMidendArtifact(enc[1], ma.Cycles).Sched(); return err }},
		{"wire.decode.backend", func() error {
			ba, err := core.ReviveBackendArtifact(enc[2])
			if err == nil {
				_, err = ba.Mod()
			}
			return err
		}},
		{"interp.randenv", func() error {
			for i := range envs {
				envs[i] = interp.RandomEnv(prog, rng)
			}
			return nil
		}},
		{"rtlsim.compile", func() error { sim = rtlsim.Compile(mod); return nil }},
		{"rtlsim.run", func() error {
			for _, lr := range sim.RunBatch(prog, envs, rtlsim.WatchdogCycles(mod.NumStates)) {
				if lr.Err != nil {
					return lr.Err
				}
			}
			return nil
		}},
	}
	for _, st := range steps {
		if err := step(st.name, st.f); err != nil {
			return replayed{}, err
		}
	}
	return replayed{
		point: refPoint{Cycles: ma.Cycles, CritPath: rep.CriticalPath, Area: rep.Area,
			Muxes: rep.Muxes, FUs: rep.FUs, Rounds: fa.Rounds},
		passes: fa.PassStats,
		insns:  sim.Mix().Total(),
		enc:    enc,
	}, nil
}

// perLayer assembles the traced run's metrics.
func (s *runner) perLayer() map[string]metric {
	vals := map[string]float64{}
	for k, v := range s.layer {
		vals[k] = v
	}
	s.rec.fold(vals, s.tracedJobs)
	untraced, traced := quantile(s.phases[0].latencies(), 0.5), quantile(s.phases[1].latencies(), 0.5)
	if untraced > 0 {
		vals["trace.overhead_frac"] = traced/untraced - 1
	}
	vals["bench.job_ms_p90"] = quantile(s.phases[0].latencies(), 0.9)
	vals["bench.job_ms_p99"] = quantile(s.phases[0].latencies(), 0.99)
	return withUnits(perLayerMetrics, vals)
}

// writeSpans writes the traced run's spans: the replay's and the
// experiments' calls, every traced client job, and every stage lookup
// the daemons published, with the machine record.
func (s *runner) writeSpans() error {
	if s.opt.spansOut == "" {
		return nil
	}
	spans := s.spans.spans
	for _, j := range s.tracedJobs {
		spans = append(spans, span{ID: len(spans) + 1, Name: "job", Job: fmt.Sprintf("d%d/%s", j.daemon, j.id),
			Start: j.at.UnixNano(), End: j.at.Add(j.lat).UnixNano()})
	}
	for _, be := range s.rec.events {
		if ev := be.ev; ev.Type == obs.TypeStage || ev.Type == obs.TypeSim {
			name := "explore.sim"
			if ev.Type == obs.TypeStage {
				name = "explore." + ev.Stage + "." + ev.Disposition
			}
			spans = append(spans, span{ID: len(spans) + 1, Name: name, Job: fmt.Sprintf("d%d", be.daemon),
				Start: ev.TimeNs - ev.DurationNs, End: ev.TimeNs})
		}
	}
	b, err := json.Marshal(struct {
		Machine  machine `json:"machine"`
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []span  `json:"spans"`
	}{thisMachine(), s.opt.workload, s.opt.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(s.opt.spansOut, b, 0o644)
}
