// Package service is the synthesis-as-a-service layer: a job queue and
// HTTP/JSON API that let many clients share ONE exploration engine — and
// therefore one in-memory stage cache, one disk cache, and one worker
// pool — instead of each paying a cold start in its own process.
//
// The unit of work is a Job: a synthesis, sweep, or search request with
// a lifecycle (queued → running → done/failed/canceled), a progress
// counter, and a priority. Jobs are keyed by the canonical rendering of
// their normalized request — including the *content fingerprint* of any
// inline source, not its text — so identical in-flight requests are
// single-flighted: the second submit attaches to the first job rather
// than queueing duplicate work. Identical requests submitted after the
// first completes run again, but hit the engine's point and frontend
// caches, which is exactly the amortization a shared daemon exists for.
// An inline source is parsed once per distinct text: the queue remembers
// each text's fingerprint in a bounded memo, so a repeated submit costs
// a hash of the text, not a parse.
//
// cmd/sparkd serves this package over HTTP:
//
//	POST   /v1/jobs               submit (returns the job, possibly deduped)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          poll one job (result inlined when terminal)
//	GET    /v1/jobs/{id}/events   live event stream (SSE): lifecycle,
//	                              progress, and search trajectory
//	DELETE /v1/jobs/{id}          cancel (mid-run cancellation cuts the job
//	                              at the next evaluation-batch boundary; a
//	                              job sharing one of its evaluations
//	                              evaluates again instead of inheriting it)
//	GET    /v1/stats              engine cache + queue + GC + blob + event
//	                              counters
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness (JSON: status, uptime, build)
//
// The daemon also exports its local blob tiers (memory + disk) as a
// remote cache tier for peer engines:
//
//	GET    /v1/blobs/{kind}/{key}   fetch an artifact (X-Blob-Sha256
//	                                digest header; HEAD probes existence)
//	PUT    /v1/blobs/{kind}/{key}   store an artifact (digest verified
//	                                when the client declares one)
//	DELETE /v1/blobs/{kind}/{key}   drop an artifact
//
// Peers declare their cache schema via X-Blob-Schema; a mismatch
// answers 412 so version skew reads as a clean miss, never as data.
package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
)

// Kind selects what a job runs.
type Kind string

const (
	// KindSynth synthesizes one configuration and returns its point.
	KindSynth Kind = "synth"
	// KindSweep evaluates a configuration grid and returns the point
	// cloud plus its Pareto frontier.
	KindSweep Kind = "sweep"
	// KindSearch runs an adaptive strategy and returns the best design
	// plus the improvement trajectory.
	KindSearch Kind = "search"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether a status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Request is the submit payload. Zero fields take kind-appropriate
// defaults (Normalize); the canonical rendering of the normalized
// request is the job's single-flight key.
type Request struct {
	Kind Kind `json:"kind"`

	// Source is an inline behavioral program; SourceRef instead names
	// the content fingerprint of a source submitted earlier (every
	// response carries the fingerprint back). Both empty selects the
	// built-in ILD generator at the request's scale(s).
	Source    string `json:"source,omitempty"`
	SourceRef string `json:"source_ref,omitempty"`

	// N is the generator scale for synth and search jobs (default 8).
	N int `json:"n,omitempty"`

	// Sweep axes: generator scales (default [4,8] when no source is
	// given), unroll bounds (default [0,8]), and whether to include the
	// classical-ASIC baseline per scale.
	Sizes      []int `json:"sizes,omitempty"`
	MaxUnrolls []int `json:"max_unrolls,omitempty"`
	Classical  bool  `json:"classical,omitempty"`

	// Synth knobs: preset ("microprocessor-block" or "classical-asic"),
	// an explicit pass list, the unroll bound, and the chaining switch.
	Preset     string   `json:"preset,omitempty"`
	Passes     []string `json:"passes,omitempty"`
	MaxUnroll  int      `json:"max_unroll,omitempty"`
	NoChaining bool     `json:"no_chaining,omitempty"`

	// Search knobs (defaults: hill / weighted / budget 32 / seed 1).
	// BudgetMS is the *soft* wall-clock budget (explore.Budget
	// MaxDuration semantics: the search stops gracefully between
	// batches and still reports its best) — distinct from DeadlineMS,
	// which is a hard job timeout that fails the job.
	Strategy  string `json:"strategy,omitempty"`
	Objective string `json:"objective,omitempty"`
	Budget    int    `json:"budget,omitempty"`
	BudgetMS  int64  `json:"budget_ms,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	// DeadlineMS caps the job's wall-clock run time in milliseconds;
	// an expired job fails with the deadline error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a
	// priority level.
	Priority int `json:"priority,omitempty"`
}

// Normalize fills kind-appropriate defaults in place and validates the
// request shape (not the source text — the queue parses that at submit).
func (r *Request) Normalize() error {
	switch r.Kind {
	case KindSynth, KindSweep, KindSearch:
	case "":
		return fmt.Errorf("service: missing job kind (want %q, %q, or %q)", KindSynth, KindSweep, KindSearch)
	default:
		return fmt.Errorf("service: unknown job kind %q (want %q, %q, or %q)", r.Kind, KindSynth, KindSweep, KindSearch)
	}
	if r.Source != "" && r.SourceRef != "" {
		return fmt.Errorf("service: source and source_ref are mutually exclusive")
	}
	hasSource := r.Source != "" || r.SourceRef != ""
	if r.N == 0 {
		r.N = 8
	}
	if r.N < 1 {
		return fmt.Errorf("service: bad scale n=%d", r.N)
	}
	switch r.Kind {
	case KindSweep:
		if len(r.Sizes) == 0 && !hasSource {
			r.Sizes = []int{4, 8}
		}
		for _, n := range r.Sizes {
			if n < 1 {
				return fmt.Errorf("service: bad sweep size %d", n)
			}
		}
		if len(r.MaxUnrolls) == 0 {
			r.MaxUnrolls = []int{0, 8}
		}
	case KindSearch:
		if r.Strategy == "" {
			r.Strategy = "hill"
		}
		if _, err := explore.StrategyByName(r.Strategy); err != nil {
			return err
		}
		if r.Objective == "" {
			r.Objective = "weighted"
		}
		if _, err := explore.ObjectiveByName(r.Objective); err != nil {
			return err
		}
		if r.Budget == 0 && r.BudgetMS == 0 && r.DeadlineMS == 0 {
			r.Budget = 32
		}
		if r.Budget < 0 {
			return fmt.Errorf("service: bad search budget %d", r.Budget)
		}
		if r.BudgetMS < 0 {
			return fmt.Errorf("service: bad search budget_ms %d", r.BudgetMS)
		}
		if r.Seed == 0 {
			r.Seed = 1
		}
	case KindSynth:
		switch r.Preset {
		case "", "microprocessor-block", "classical-asic":
		default:
			return fmt.Errorf("service: unknown preset %q", r.Preset)
		}
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("service: bad deadline_ms %d", r.DeadlineMS)
	}
	return nil
}

// preset resolves the synth preset name (default microprocessor-block).
func (r *Request) preset() core.Preset {
	if r.Preset == "classical-asic" {
		return core.ClassicalASIC
	}
	return core.MicroprocessorBlock
}

// key renders the normalized request canonically for single-flight
// dedup. sourceFP is the resolved content fingerprint of the request's
// source ("" for the generator): two submits carrying byte-different
// text of the same program coalesce, and a source_ref submit coalesces
// with the inline submit that registered it. The synth case hashes the
// canonical Config rendering — whose pass-list join escapes ";" inside
// specs — so two distinct pass lists can never key identically.
func (r *Request) key(sourceFP string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%s src=%s", r.Kind, sourceFP)
	switch r.Kind {
	case KindSynth:
		fmt.Fprintf(&b, " cfg={%s}", synthConfig(r, sourceFP).String())
	case KindSweep:
		// Sizes drive the generator only; a source-backed sweep ignores
		// them (see sweepSpace), so keying them would split identical
		// work across jobs.
		if sourceFP == "" {
			fmt.Fprintf(&b, " sizes=%v", r.Sizes)
		}
		fmt.Fprintf(&b, " maxunrolls=%v classical=%t", r.MaxUnrolls, r.Classical)
	case KindSearch:
		// Likewise N: a source-backed search space drops the scale.
		if sourceFP == "" {
			fmt.Fprintf(&b, " n=%d", r.N)
		}
		fmt.Fprintf(&b, " strategy=%s objective=%s budget=%d budget_ms=%d seed=%d",
			r.Strategy, r.Objective, r.Budget, r.BudgetMS, r.Seed)
	}
	if r.DeadlineMS > 0 {
		fmt.Fprintf(&b, " deadline_ms=%d", r.DeadlineMS)
	}
	return ir.HashText(b.String())
}

// maxSourceMemo bounds the queue's parse memo: the number of distinct
// inline source texts whose program fingerprint it remembers. A full
// memo is cleared; a text that fell out costs one re-parse.
const maxSourceMemo = 1024

// sourceMemo maps the hash of an inline source text (ir.HashText) to
// the content fingerprint of the program it parsed to, so a repeated
// submit of the same text skips the lexer, the parser and the
// fingerprint walk. Only successful parses are stored.
type sourceMemo struct {
	mu  sync.Mutex
	fps map[string]string
}

func (m *sourceMemo) get(textHash string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fp, ok := m.fps[textHash]
	return fp, ok
}

func (m *sourceMemo) put(textHash, fp string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fps == nil || len(m.fps) >= maxSourceMemo {
		m.fps = make(map[string]string)
	}
	m.fps[textHash] = fp
}

// resolveSource returns the engine source name of a request ("" for the
// generator). An inline source is parsed once per distinct text: the
// first submit parses it, registers the program under its content
// fingerprint (Engine.AddSource) and records text → fingerprint in the
// queue's bounded memo; a later submit of the same text whose
// fingerprint the engine still holds returns it without parsing. Two
// concurrent first submits of one text may both parse, which is
// harmless: both register an equal program under one fingerprint, and
// the engine pins whichever it resolves first. A source_ref is checked
// against the engine's sources.
func (q *Queue) resolveSource(r *Request) (string, error) {
	if r.Source != "" {
		h := ir.HashText(r.Source)
		if fp, ok := q.parsed.get(h); ok && q.eng.HasSource(fp) {
			return fp, nil
		}
		prog, err := parser.Parse("inline", r.Source)
		if err != nil {
			return "", fmt.Errorf("service: parse source: %w", err)
		}
		fp := ir.Fingerprint(prog)
		q.eng.AddSource(fp, prog)
		q.parsed.put(h, fp)
		return fp, nil
	}
	if r.SourceRef != "" {
		if !q.eng.HasSource(r.SourceRef) {
			return "", fmt.Errorf("service: unknown source_ref %q (submit the source inline first)", r.SourceRef)
		}
		return r.SourceRef, nil
	}
	return "", nil
}

// PointView is the JSON rendering of one evaluated configuration.
type PointView struct {
	Config   string  `json:"config"`
	Cycles   int     `json:"cycles"`
	Latency  int     `json:"latency"`
	CritPath float64 `json:"crit_path"`
	Area     float64 `json:"area"`
	Muxes    int     `json:"muxes"`
	FUs      int     `json:"fus"`
	Rounds   int     `json:"rounds"`
	Err      string  `json:"err,omitempty"`
}

func pointView(p explore.Point) PointView {
	return PointView{
		Config: p.Config.String(), Cycles: p.Cycles, Latency: p.Latency,
		CritPath: p.CritPath, Area: p.Area, Muxes: p.Muxes, FUs: p.FUs,
		Rounds: p.Rounds, Err: p.Err,
	}
}

func pointViews(pts []explore.Point) []PointView {
	out := make([]PointView, len(pts))
	for i, p := range pts {
		out[i] = pointView(p)
	}
	return out
}

// TrajectoryStep is one strict improvement in a search result.
type TrajectoryStep struct {
	Evaluation int       `json:"evaluation"`
	Score      float64   `json:"score"`
	Point      PointView `json:"point"`
}

// SearchView is the JSON rendering of a finished (or cancelled-partial)
// adaptive search.
type SearchView struct {
	Strategy    string           `json:"strategy"`
	Objective   string           `json:"objective"`
	Seed        int64            `json:"seed"`
	Evaluations int              `json:"evaluations"`
	Revisits    int              `json:"revisits"`
	Restarts    int              `json:"restarts,omitempty"`
	Generations int              `json:"generations,omitempty"`
	Exhausted   bool             `json:"exhausted"`
	Canceled    bool             `json:"canceled,omitempty"`
	BestScore   float64          `json:"best_score"`
	Best        *PointView       `json:"best,omitempty"`
	Trajectory  []TrajectoryStep `json:"trajectory"`
}

// Result is a job's payload: points for synth, points + frontier for
// sweeps, the search summary for searches. SourceFingerprint echoes the
// content identity of the job's source so later submits can reference
// it (source_ref) instead of re-sending text.
type Result struct {
	SourceFingerprint string      `json:"source_fingerprint,omitempty"`
	Points            []PointView `json:"points,omitempty"`
	Frontier          []PointView `json:"frontier,omitempty"`
	Search            *SearchView `json:"search,omitempty"`
}

// Progress is a job's completed/total evaluation counter. Total is 0
// when the job's size is unknown up front (searches).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
}

// JobView is the JSON rendering of a job's state. Result is populated
// only once the job is terminal.
type JobView struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	Kind      Kind       `json:"kind"`
	Status    Status     `json:"status"`
	Priority  int        `json:"priority,omitempty"`
	Deduped   bool       `json:"deduped,omitempty"`
	Coalesced int        `json:"coalesced,omitempty"`
	Progress  *Progress  `json:"progress,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *Result    `json:"result,omitempty"`
}

// QueueStatsView is the queue's cumulative job accounting.
type QueueStatsView struct {
	Submitted int64 `json:"submitted"`
	Coalesced int64 `json:"coalesced"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
}

// KindGCView is the cumulative eviction accounting for one artifact
// kind (frontend, midend, backend, point), so a long-lived deployment
// can see which cache layer its byte budget is squeezing.
type KindGCView struct {
	Kind         string `json:"kind"`
	RemovedFiles int64  `json:"removed_files"`
	RemovedBytes int64  `json:"removed_bytes"`
}

// GCStatsView is the cumulative cache-GC accounting of a daemon that
// runs with a byte budget.
type GCStatsView struct {
	Runs         int64 `json:"runs"`
	RemovedFiles int64 `json:"removed_files"`
	RemovedBytes int64 `json:"removed_bytes"`
	Errors       int64 `json:"errors"`
	// PerKind breaks the removal counters down by artifact kind, sorted
	// by kind name; only kinds that ever lost an artifact appear.
	PerKind []KindGCView `json:"per_kind,omitempty"`
}

// BlobTrafficView counts traffic on the daemon's /v1/blobs API — the
// server side of peers' remote tiers, separate from the engine's own
// cache counters.
type BlobTrafficView struct {
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Puts    int64 `json:"puts"`
	Deletes int64 `json:"deletes"`
	Errors  int64 `json:"errors"`
}

// EventStatsView counts observability traffic: events through the
// engine's bus and SSE stream subscriptions, including subscribers
// dropped for falling behind (the publish side never blocks on a slow
// reader).
type EventStatsView struct {
	BusPublished       int64 `json:"bus_published"`
	BusDropped         int64 `json:"bus_dropped"`
	BusSubscribers     int   `json:"bus_subscribers"`
	StreamsOpened      int64 `json:"streams_opened"`
	StreamsActive      int64 `json:"streams_active"`
	SubscribersDropped int64 `json:"subscribers_dropped"`
}

// StatsView is the /v1/stats payload: where lookups were served from
// (the shared caches being the product), the blob-API counters, the
// queue counters, and the GC counters, stamped with the cache schema so
// archived stats are comparable across stage-version bumps.
type StatsView struct {
	CacheSchema   string                `json:"cache_schema"`
	StageVersions explore.StageVersions `json:"stage_versions"`
	Engine        explore.Stats         `json:"engine"`
	Blobs         BlobTrafficView       `json:"blobs"`
	Queue         QueueStatsView        `json:"queue"`
	GC            GCStatsView           `json:"gc"`
	Events        EventStatsView        `json:"events"`
}
