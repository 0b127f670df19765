package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sparkgo/internal/blob"
	"sparkgo/internal/cache"
	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
)

// SchemaVersion versions the engine's own on-disk artifact schema (the
// blob layouts below, the point-key recipe, and anything else that
// changes the meaning of a persisted point — e.g. the simulation seed
// derivation). The full disk schema string also folds in the stage
// versions of internal/core, so bumping either side invalidates
// persisted artifacts cleanly.
//
// v2: simulation stimulus is seeded from (source fingerprint, canonical
// config) instead of the bare config hash, so persisted v1 latencies no
// longer reproduce.
//
// v3: midend and backend artifacts persist alongside frontend artifacts
// and points (full-flow artifact persistence), and the underlying IR
// wire format renamed its type table, so v2 fingerprints no longer
// reproduce.
//
// v4: every blob and artifact payload moved from gob to the
// deterministic binary wire format (internal/wire), the cache stores
// raw hash-verified bytes, and revival stopped decoding payloads —
// blob metadata (cycles, fingerprints) answers for them.
//
// v5: stage artifacts on disk are content-address deduplicated — the
// logical (kind, key) entry holds a CAS alias resolving to the payload
// stored once under its own SHA-256 — so a v4 engine reading a v5
// directory would mis-parse aliases as blobs.
//
// v6: content-address deduplication is gone — every stage payload is
// stored directly under its logical (kind, key) again — so the
// aliases a v5 directory holds would mis-parse as payloads.
//
// v7: blobs persist only what revival reads. The frontend blob drops
// the printed source, the per-pass stage metrics and the pass
// statistics, keeping the program encoding, its fingerprint and the
// round count; the backend blob is core's backend encoding itself, with
// no wrapper or fingerprint. Both layouts changed, so a v6 blob would
// mis-parse.
//
// v8: the point blob (exppt/2) drops the config's fixpoint-round bound
// and backend report scale, two knobs the engine no longer has, so a v7
// point would mis-parse.
const SchemaVersion = 8

// Artifact kinds in the blob store.
const (
	kindFrontend = "frontend"
	kindMidend   = "midend"
	kindBackend  = "backend"
	kindPoint    = "point"
)

// ValidArtifactKind reports whether kind names one of the four logical
// artifact layers — the only kinds the daemon's blob API serves.
func ValidArtifactKind(kind string) bool {
	switch kind {
	case kindFrontend, kindMidend, kindBackend, kindPoint:
		return true
	}
	return false
}

// Tier names in the engine's blob stack, as reported by Stats.
const (
	TierMem    = "mem"
	TierDisk   = "disk"
	TierRemote = "remote"
)

// DiskSchema is the complete version string the disk layer is keyed
// under; artifacts written under any other schema are invisible.
func DiskSchema() string {
	return fmt.Sprintf("explore%d-fe%d-me%d-be%d",
		SchemaVersion, core.FrontendVersion, core.MidendVersion, core.BackendVersion)
}

// StageVersions is the exploded form of DiskSchema: every version
// constant folded into the disk schema, individually addressable.
// Archived artifacts (BENCH_*.json, service stats) embed it so results
// stay comparable — and incomparability stays detectable — across
// stage-version bumps.
type StageVersions struct {
	Explore  int `json:"explore"`
	Frontend int `json:"frontend"`
	Midend   int `json:"midend"`
	Backend  int `json:"backend"`
}

// Versions reports the current stage-version constants.
func Versions() StageVersions {
	return StageVersions{
		Explore:  SchemaVersion,
		Frontend: core.FrontendVersion,
		Midend:   core.MidendVersion,
		Backend:  core.BackendVersion,
	}
}

// blobStack lazily assembles the engine's tiered blob store once:
// L1 memory (an LRU bounded to blob.DefaultMemBytes), L2 disk
// (internal/cache), L3 remote (another daemon's /v1/blobs API, so
// local work warms the fleet).
// Every tier is written through and a hit backfills the faster ones.
// Single-flight lives in the tiered layer, so each stage lookup below
// is one Do call instead of a hand-rolled memo map. A disk-open
// failure disables that tier for the engine's lifetime (counted in
// Stats.DiskErrors) rather than failing sweeps.
func (e *Engine) blobStack() *blob.Tiered {
	e.blobOnce.Do(func() {
		local := []blob.Tier{{Name: TierMem, Store: blob.NewMem(blob.DefaultMemBytes)}}
		if e.CacheDir != "" {
			s, err := cache.Open(e.CacheDir, DiskSchema())
			if err != nil {
				e.diskErrors.Add(1)
			} else {
				e.store = s
				local = append(local, blob.Tier{Name: TierDisk, Store: s})
			}
		}
		e.localBlobs = blob.NewTiered(local...)
		e.localBlobs.Obs = e.Obs
		if e.RemoteCache == "" {
			e.blobs = e.localBlobs
			return
		}
		remote := &blob.Remote{Base: e.RemoteCache, Schema: DiskSchema()}
		all := append(local[:len(local):len(local)], blob.Tier{Name: TierRemote, Store: remote})
		e.blobs = blob.NewTiered(all...)
		e.blobs.Obs = e.Obs
	})
	return e.blobs
}

// LocalBlobs is the store behind the daemon's blob API: the engine's
// local tiers (memory, disk) only — never the remote tier, so chained
// daemons cannot proxy-loop through each other.
func (e *Engine) LocalBlobs() blob.Store {
	e.blobStack()
	return e.localBlobs
}

// CacheGC evicts cold artifacts from the engine's disk cache until it
// fits maxBytes, oldest-access-first (see cache.Store.GC — artifacts
// under retired schema versions go first). It errors when the engine has
// no usable disk layer.
func (e *Engine) CacheGC(maxBytes int64) (cache.GCStat, error) {
	e.blobStack()
	if e.store == nil {
		return cache.GCStat{}, fmt.Errorf("explore: no disk cache configured")
	}
	return e.store.GC(maxBytes)
}

// pointKey keys a fully evaluated configuration in the blob store. The
// key must identify everything the point depends on across processes:
// the canonical config, the source program's content fingerprint — the
// same name can map to different programs across processes — and the
// simulation depth.
func (e *Engine) pointKey(c Config, sourceFingerprint string) string {
	return ir.HashText(fmt.Sprintf("point|cfg=%s|src=%s|sim=%d",
		c.String(), sourceFingerprint, e.SimTrials))
}

// stage names one memoized layer of the engine; it indexes the lookup
// table behind Stats.
type stage int

const (
	stagePoint stage = iota
	stageFrontend
	stageMidend
	stageBackend
	numStages
)

// stageKinds is each layer's artifact kind in the blob store, which is
// also the Stage its events carry.
var stageKinds = [numStages]string{kindPoint, kindFrontend, kindMidend, kindBackend}

// disp is how one lookup was served. dispShared — the caller joined
// another caller's in-flight lookup — keeps its own event disposition
// but is counted with the memory hits.
type disp int

const (
	dispMem disp = iota
	dispDisk
	dispRemote
	dispComputed
	dispShared
)

var dispNames = [...]string{obs.DispMem, obs.DispDisk, obs.DispRemote, obs.DispComputed, obs.DispShared}

// disposition classifies how a blob-store Do was served; a result no
// tier served was computed.
func disposition(res blob.DoResult) disp {
	if res.Shared {
		return dispShared
	}
	switch res.Tier {
	case TierMem:
		return dispMem
	case TierDisk:
		return dispDisk
	case TierRemote:
		return dispRemote
	}
	return dispComputed
}

// stageStart opens a stage span: the wall-clock start when a bus is
// attached, the zero time otherwise — so an uninstrumented engine pays
// neither the clock read nor the event construction (the nil-bus fast
// path the observability layer promises).
func (e *Engine) stageStart() time.Time {
	if e.Obs.Active() {
		return time.Now()
	}
	return time.Time{}
}

// record counts one lookup of layer s served as d and closes its stage
// span opened at start. It is the only code that counts lookups, and
// every counted lookup publishes exactly one stage event, so Stats and
// the event stream (and the /metrics folded from it) cannot disagree.
func (e *Engine) record(s stage, d disp, start time.Time) {
	slot := d
	if slot == dispShared {
		slot = dispMem
	}
	e.lookups[s][slot].Add(1)
	if start.IsZero() {
		return
	}
	e.Obs.Publish(obs.Event{
		Type:        obs.TypeStage,
		Stage:       stageKinds[s],
		Disposition: dispNames[d],
		DurationNs:  time.Since(start).Nanoseconds(),
	})
}

// lookup serves one lookup of layer s under key, every memoized layer
// through the same path. compute builds the value and its blob encoding
// (nil: nothing faithful to persist — the in-flight value is still
// shared, and a configured disk tier counts a DiskErrors); revive
// rebuilds a value from bytes a tier served.
//
// An empty key (nothing stable to key on) computes uncached. Otherwise
// the tiered store reads through memory → disk → remote, and a miss
// computes once across concurrent callers and writes through. A failed
// compute is stored nowhere (the engine's no-sticky-errors rule), so a
// later lookup retries — which is also what keeps a context-cancelled
// run from poisoning the cache. Bytes that do not revive (a
// schema-confused writer, an error point from an engine predating that
// rule) are purged, counted in DiskErrors and looked up once more; a
// second bad payload computes uncached, so a bad cache never fails the
// evaluation.
//
// A context already done when compute is due returns its error instead
// of starting the stage; hits are served regardless. Stage work is the
// unit of cancellation: a compute, once started, runs to completion.
// The leader's context governs a shared flight, so a caller that joined
// a flight cut short by another caller's cancellation or deadline runs
// the lookup again while its own context is alive: a caller only ever
// sees a context error of its own.
func lookup[T any](ctx context.Context, e *Engine, s stage, key string,
	compute func() (T, []byte, error), revive func([]byte) (T, error)) (T, error) {
	start := e.stageStart()
	run := func() (T, []byte, error) {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, nil, err
		}
		return compute()
	}
	if key != "" {
		kind := stageKinds[s]
		// led: this caller ran the flight's compute. Do runs it on the
		// caller's goroutine; a caller that joined another's failed
		// flight gets the error without it.
		led := false
		do := func() ([]byte, any, error) {
			led = true
			v, data, err := run()
			if err != nil {
				return nil, nil, err
			}
			if data == nil && e.store != nil {
				e.diskErrors.Add(1)
			}
			return data, v, nil
		}
		for attempt := 0; attempt < 2; attempt++ {
			res, err := e.blobStack().Do(kind, key, do)
			for err != nil && !led && ctx.Err() == nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				res, err = e.blobStack().Do(kind, key, do)
			}
			if err != nil {
				d := dispShared
				if led {
					d = dispComputed
				}
				e.record(s, d, start)
				var zero T
				return zero, err
			}
			if res.Obj != nil {
				e.record(s, disposition(res), start)
				return res.Obj.(T), nil
			}
			if v, err := revive(res.Data); err == nil {
				e.record(s, disposition(res), start)
				return v, nil
			}
			e.diskErrors.Add(1)
			e.blobStack().Delete(kind, key)
		}
	}
	v, _, err := run()
	e.record(s, dispComputed, start)
	return v, err
}

// sourceEntry memoizes one resolved source program and its content
// fingerprint, so a sweep fingerprints each source once instead of
// per configuration.
type sourceEntry struct {
	once        sync.Once
	prog        *ir.Program
	fingerprint string
	err         error
}

// sourceID identifies the program a config synthesizes within this
// engine: a named source, or the generator at scale N.
func sourceID(c Config) string {
	if c.Source != "" {
		return "src=" + c.Source
	}
	return fmt.Sprintf("n=%d", c.N)
}

// resolveSource returns the (memoized) program and fingerprint for a
// config's source. Like every cache layer here, resolution failures
// are not memoized: concurrent callers share one attempt, but the
// error entry is dropped so a later lookup re-resolves — a source
// generator that failed transiently gets retried.
func (e *Engine) resolveSource(c Config) (*sourceEntry, error) {
	id := sourceID(c)
	e.mu.Lock()
	if e.sources == nil {
		e.sources = map[string]*sourceEntry{}
	}
	se, ok := e.sources[id]
	if !ok {
		se = &sourceEntry{}
		e.sources[id] = se
	}
	e.mu.Unlock()
	se.once.Do(func() {
		if c.Source != "" {
			// The source table mutates while the daemon's engine runs
			// (AddSource), so reads take the engine lock.
			e.mu.Lock()
			se.prog = e.Sources[c.Source]
			e.mu.Unlock()
			if se.prog == nil {
				se.err = fmt.Errorf("explore: unknown source %q", c.Source)
				return
			}
		} else {
			gen := e.Source
			if gen == nil {
				gen = ild.Program
			}
			se.prog = gen(c.N)
			if se.prog == nil {
				se.err = fmt.Errorf("explore: source generator returned nil for n=%d", c.N)
				return
			}
		}
		se.fingerprint = ir.Fingerprint(se.prog)
	})
	if se.err != nil {
		e.mu.Lock()
		if e.sources[id] == se {
			delete(e.sources, id)
		}
		e.mu.Unlock()
	}
	return se, se.err
}

// frontend returns the frontend artifact for (source, options), running
// the transformation pipeline at most once per stage key across
// concurrent callers (see lookup).
func (e *Engine) frontend(ctx context.Context, src *sourceEntry, o core.FrontendOptions) (*core.FrontendArtifact, error) {
	key := core.FrontendKeyFrom(src.fingerprint, o)
	return lookup(ctx, e, stageFrontend, key, func() (*core.FrontendArtifact, []byte, error) {
		fa, err := core.Frontend(src.prog, o)
		if err != nil {
			return nil, nil, err
		}
		// Frontend leaves content identity and the stage key to its
		// caller; fill both before the artifact is shared.
		enc := fa.Materialize()
		fa.Key = key
		if enc == nil {
			return fa, nil, nil
		}
		fb := frontendBlob{Program: enc, Fingerprint: fa.Fingerprint, Rounds: fa.Rounds}
		return fa, fb.encode(), nil
	}, func(data []byte) (*core.FrontendArtifact, error) {
		fb, err := decodeFrontendBlob(data)
		if err != nil {
			return nil, err
		}
		fa := core.ReviveFrontendArtifact(fb.Program)
		fa.Fingerprint = fb.Fingerprint
		fa.Key = key
		fa.Rounds = fb.Rounds
		return fa, nil
	})
}

// frontendBlob is the stored form of a frontend artifact: the
// transformed program in the lossless IR encoding (ir.EncodeProgram —
// printed surface text would lose the expression types the passes
// assigned), plus the two fields a revived artifact is read for: the
// content fingerprint the midend key chains on and the round count
// sweep points report. Variable pointer identity is rebuilt by the
// decoder; nothing downstream depends on it.
type frontendBlob struct {
	Program     []byte // ir.EncodeProgram of the transformed program
	Fingerprint string
	Rounds      int
}

// midend returns the midend artifact for (frontend artifact, options),
// lowering and scheduling at most once per stage key (see lookup). The
// artifact is shared read-only across configurations; the backend never
// mutates it. Revival is a header parse: the blob carries the
// fingerprint and cycle count, and the schedule plan materializes
// lazily (Sched) only when the backend stage misses its own caches.
func (e *Engine) midend(ctx context.Context, fa *core.FrontendArtifact, o core.MidendOptions) (*core.MidendArtifact, error) {
	key := core.MidendKey(fa, o)
	return lookup(ctx, e, stageMidend, key, func() (*core.MidendArtifact, []byte, error) {
		ma, err := core.Midend(fa, o)
		if err != nil {
			return nil, nil, err
		}
		enc := ma.Materialize()
		ma.Key = key
		if enc == nil {
			return ma, nil, nil
		}
		mb := midendBlob{Schedule: enc, Fingerprint: ma.Fingerprint, Cycles: ma.Cycles}
		return ma, mb.encode(), nil
	}, func(data []byte) (*core.MidendArtifact, error) {
		mb, err := decodeMidendBlob(data)
		if err != nil {
			return nil, err
		}
		ma := core.ReviveMidendArtifact(mb.Schedule, mb.Cycles)
		ma.Fingerprint = mb.Fingerprint
		ma.Key = key
		return ma, nil
	})
}

// midendBlob is the stored form of a midend artifact: its lossless
// encoding (the program before lowering, then the schedule plan's
// decisions; revival lowers the program again), the content
// fingerprint downstream stage keys chain on, and the cycle count — the
// one schedule metric sweep points read — so a revived artifact answers
// every cache-warm question without decoding the plan.
type midendBlob struct {
	Schedule    []byte // core.MidendArtifact.Materialize: program, then plan
	Fingerprint string
	Cycles      int
}

// backend returns the backend artifact for (midend artifact, options),
// binding and building the netlist at most once per stage key (see
// lookup). The stage keys on the midend artifact's content fingerprint,
// so two scheduling option sets that converge on the same schedule share
// one netlist. The blob is core's backend encoding as-is: revival
// parses its report shell and leaves the netlist encoded; only the
// simulation path pays the module decode (Mod), and only when SimTrials
// asks for it.
func (e *Engine) backend(ctx context.Context, ma *core.MidendArtifact, o core.BackendOptions) (*core.BackendArtifact, error) {
	key := core.BackendKey(ma, o)
	return lookup(ctx, e, stageBackend, key, func() (*core.BackendArtifact, []byte, error) {
		ba, err := core.Backend(ma, o)
		if err != nil {
			return nil, nil, err
		}
		return ba, ba.Materialize(), nil
	}, core.ReviveBackendArtifact)
}
