package core

import (
	"fmt"
	"strings"
	"sync"

	"sparkgo/internal/delay"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/pass"
	"sparkgo/internal/rtl"
	"sparkgo/internal/sched"
	"sparkgo/internal/wire"
)

// Stage versions participate in every artifact key. Bump a version when
// the corresponding stage's behavior changes in a way that invalidates
// previously computed artifacts (a new pass semantics, a scheduler fix,
// a netlist layout change); cached artifacts keyed under the old version
// then miss instead of serving stale results.
const (
	// FrontendVersion keys transformed-IR artifacts.
	//
	// v2: programs are persisted in the deterministic binary wire format
	// (internal/wire) instead of gob, so content fingerprints changed.
	// v3: CSE compares right-hand sides by structure, not printed text.
	// The printed text drops constant and inner-node types, so CSE merged
	// expressions that print alike but compute at different widths, and
	// artifacts cached for such inputs are wrong.
	FrontendVersion = 3
	// MidendVersion keys HTG/schedule artifacts.
	//
	// v2: midend artifacts are persisted losslessly (sched.EncodeResult)
	// and carry a content fingerprint; v1 artifacts were in-memory only.
	// v3: schedules are persisted in the deterministic binary wire
	// format (internal/wire) instead of gob.
	// v4: only the schedule plan is persisted (sched.EncodePlan): no
	// delay model, per-op arrival/finish tables, per-state critical
	// paths or dependence graph.
	// v5: sequential-mode FSMs carry no tombstone edges (From = -3), and
	// decoding rejects an edge outside the plan's states.
	// v6: the artifact persists the program before lowering and the
	// plan's decisions, with ops by ID; the lowered graph does not
	// travel, and revival lowers the program again.
	MidendVersion = 6
	// BackendVersion keys netlist/stats artifacts.
	//
	// v2: backend artifacts are persisted losslessly (rtl.EncodeModule +
	// report) and the stage keys on the midend artifact's *content*
	// fingerprint instead of its stage key, so two option sets that
	// converge on the same schedule share backend work.
	// v3: netlists and the report shell are persisted in the
	// deterministic binary wire format (internal/wire) instead of gob.
	BackendVersion = 3
)

// FrontendOptions is the subset of Options the frontend stage reads: the
// pass list and the fixpoint bound. Nothing about presets, delay models,
// resources, or chaining reaches the frontend, which is exactly why
// configurations differing only in those back-end knobs can share one
// frontend artifact.
type FrontendOptions struct {
	// Passes is the ordered pass list in internal/pass spec syntax.
	Passes []string
	// Rounds bounds fixed-point iteration (0 = pass.DefaultMaxRounds).
	Rounds int
}

// canonical renders the option fields that affect frontend output.
func (o FrontendOptions) canonical() string {
	return fmt.Sprintf("passes=[%s] rounds=%d", JoinPassSpecs(o.Passes), o.Rounds)
}

// JoinPassSpecs renders a pass list unambiguously: "\" and ";" inside a
// spec are escaped before joining on "; ", so two distinct lists can
// never render — and therefore key — identically.
func JoinPassSpecs(specs []string) string {
	esc := make([]string, len(specs))
	for i, s := range specs {
		s = strings.ReplaceAll(s, `\`, `\\`)
		esc[i] = strings.ReplaceAll(s, ";", `\;`)
	}
	return strings.Join(esc, "; ")
}

// FrontendKeyFrom composes the frontend stage key from the input
// program's content fingerprint (ir.Fingerprint; the exploration engine
// memoizes it per source) and the options.
func FrontendKeyFrom(inputFingerprint string, o FrontendOptions) string {
	return ir.HashText(fmt.Sprintf("frontend/v%d|src=%s|%s",
		FrontendVersion, inputFingerprint, o.canonical()))
}

// FrontendArtifact is the output of the frontend stage: the transformed
// program plus everything the reporting layers want to know about how it
// got there. The Program field must be treated as read-only — artifacts
// are shared between configurations in a sweep, and Midend clones before
// lowering.
type FrontendArtifact struct {
	Program *ir.Program // transformed program; treat as immutable
	// Fingerprint is ir.Fingerprint of Program: the artifact's content
	// identity, independent of which pass list produced it. Empty until
	// Materialize runs.
	Fingerprint string
	// Key is the stage key H(input fingerprint, options, version).
	// Frontend itself leaves it empty — computing it would hash the
	// input a second time, and the one-shot Synthesize path never reads
	// it; callers that computed it (FrontendKeyFrom, as the exploration
	// engine does) stamp it on the artifact themselves.
	Key string
	// Stages and PassStats report how Frontend got there; an artifact
	// revived from a persisted encoding leaves them empty.
	Stages    []StageMetrics
	PassStats []pass.Stat
	Rounds    int

	// progEnc holds the program's lossless encoding: on artifacts revived
	// from disk Prog decodes it on first use, and Materialize keeps the
	// one it made. Computed artifacts carry the program directly and
	// never pay a decode.
	progEnc    []byte
	decodeOnce sync.Once
	decodeErr  error
}

// ReviveFrontendArtifact rebuilds a frontend artifact shell from a
// persisted program encoding without decoding it: disk revival is
// hash-verified by the cache layer, so the decode is deferred until a
// caller actually needs the program (Prog). Metadata fields
// (Fingerprint, Rounds, ...) are the caller's to stamp from its own
// persisted record.
func ReviveFrontendArtifact(progEnc []byte) *FrontendArtifact {
	return &FrontendArtifact{progEnc: progEnc}
}

// Prog returns the artifact's program, decoding the persisted encoding
// on first call for revived artifacts. Computed artifacts return their
// in-memory program unconditionally.
func (fa *FrontendArtifact) Prog() (*ir.Program, error) {
	if fa.Program != nil {
		return fa.Program, nil
	}
	fa.decodeOnce.Do(func() {
		if fa.progEnc == nil {
			fa.decodeErr = fmt.Errorf("core: frontend artifact has no program encoding")
			return
		}
		p, err := ir.DecodeProgram(fa.progEnc)
		if err != nil {
			fa.decodeErr = fmt.Errorf("core: revive frontend: %w", err)
			return
		}
		fa.Program = p
	})
	return fa.Program, fa.decodeErr
}

// Materialize computes and stores the artifact's content Fingerprint,
// returning the lossless program encoding the fingerprint hashes (nil
// if the program failed to encode) so callers persisting the artifact
// can reuse it instead of encoding again. Call it from the goroutine
// that created the artifact, before sharing it; Synthesize never calls
// it, keeping the one-shot path free of serialization cost.
func (fa *FrontendArtifact) Materialize() []byte {
	enc, err := ir.EncodeProgram(fa.Program)
	if err != nil {
		// Mirror ir.Fingerprint's fallback for unencodable programs.
		fa.Fingerprint = ir.HashText("unencodable|" + ir.Print(fa.Program))
		return nil
	}
	fa.Fingerprint = ir.FingerprintBytes(enc)
	fa.progEnc = enc
	return enc
}

// encoding returns the program's lossless encoding: the one
// Materialize made or revival read, else a fresh one.
func (fa *FrontendArtifact) encoding() ([]byte, error) {
	if fa.progEnc != nil {
		return fa.progEnc, nil
	}
	return ir.EncodeProgram(fa.Program)
}

// Frontend runs the transformation stage: clone the input, drive the
// pass pipeline to a fixed point, validate, and fingerprint the result.
func Frontend(input *ir.Program, o FrontendOptions) (*FrontendArtifact, error) {
	passes, err := pass.BuildAll(o.Passes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	work := ir.CloneProgram(input)
	fa := &FrontendArtifact{Program: work}

	// An application that changed nothing leaves main as the previous
	// row measured it, so only the function count is taken again. About
	// two thirds of applications change nothing; on the 32-byte ILD,
	// walking main after each of them too took 15% of the frontend's time.
	observer := func(pass string, changed bool, p *ir.Program) {
		m := p.Main()
		if m == nil {
			return
		}
		if n := len(fa.Stages); !changed && n > 0 {
			row := fa.Stages[n-1]
			row.Pass, row.Changed, row.Funcs = pass, false, len(p.Funcs)
			fa.Stages = append(fa.Stages, row)
			return
		}
		c := ir.Shape(m)
		fa.Stages = append(fa.Stages, StageMetrics{
			Pass: pass, Changed: changed,
			Stmts: c.Stmts, Ops: c.Ops, Ifs: c.Ifs, Loops: c.Loops, Calls: c.Calls,
			Funcs: len(p.Funcs),
		})
	}
	pl := &pass.Pipeline{Passes: passes, MaxRounds: o.Rounds, Observer: observer}
	if err := pl.Run(work); err != nil {
		return nil, fmt.Errorf("core: transform: %w", err)
	}
	fa.PassStats = pl.Stats()
	fa.Rounds = pl.Rounds()
	if err := ir.Validate(work); err != nil {
		return nil, fmt.Errorf("core: transformed program invalid: %w", err)
	}
	return fa, nil
}

// MidendOptions is the subset of Options the midend stage reads: the
// scheduling regime. The delay model matters here because the chaining
// test compares accumulated path delay against the clock period.
type MidendOptions struct {
	Preset     Preset
	Model      *delay.Model // nil: delay.Default()
	NoChaining bool
}

func (o MidendOptions) model() *delay.Model {
	if o.Model == nil {
		return delay.Default()
	}
	return o.Model
}

// canonical renders the option fields that affect midend output.
func (o MidendOptions) canonical() string {
	var b strings.Builder
	m := o.model()
	fmt.Fprintf(&b, "preset=%s nand=%g clock=%g", o.Preset, m.NandDelay, m.ClockPeriod)
	if o.NoChaining {
		b.WriteString(" nochain")
	}
	return b.String()
}

// MidendKey composes the midend stage key from the frontend artifact's
// content fingerprint — not its stage key, so two pass lists that happen
// to produce the same transformed program share midend work too. Empty
// when the artifact was never materialized (the one-shot flow).
func MidendKey(fa *FrontendArtifact, o MidendOptions) string {
	if fa.Fingerprint == "" {
		return ""
	}
	return ir.HashText(fmt.Sprintf("midend/v%d|fe=%s|%s",
		MidendVersion, fa.Fingerprint, o.canonical()))
}

// MidendArtifact is the output of the midend stage: the hierarchical
// task graph and its schedule plan — what the backend builds from —
// plus the private program clone they reference. What the scheduler
// only reports (arrival times, critical paths) is not part of the
// artifact; a fresh Synthesize result carries it.
//
// The graph is derived data: lowering is a deterministic function of
// the program. So the artifact persists the program as it was before
// lowering, which is the frontend artifact's program encoding, and after
// it only the plan's decisions (sched.EncodePlan). A revived artifact
// lowers the program again and attaches the plan to that graph.
type MidendArtifact struct {
	Program  *ir.Program // midend's own clone, lowered; Graph/Schedule reference its vars
	Graph    *htg.Graph
	Schedule *sched.Plan
	Cycles   int
	// Fingerprint is the artifact's content identity: the SHA-256 of its
	// lossless encoding. Empty until Materialize runs; the one-shot
	// Synthesize path never pays for it.
	Fingerprint string
	Key         string

	// src holds the program before lowering, as the frontend artifact
	// the midend lowered; Materialize persists its encoding. On a revived
	// artifact it holds only the encoding read back.
	src *FrontendArtifact
	// enc holds the lossless encoding on artifacts revived from disk;
	// Sched decodes it on first use.
	enc        []byte
	decodeOnce sync.Once
	decodeErr  error
}

// midendTag versions the midend artifact wire shell: the program
// before lowering, then the schedule plan.
const midendTag = "midend/1"

// ReviveMidendArtifact rebuilds a midend artifact shell from a
// persisted encoding without decoding it: disk revival is hash-verified
// by the cache layer, and cycles travels as metadata alongside the
// payload, so downstream stage keys and sweep metrics never force a
// decode. Sched materializes the plan on first use.
func ReviveMidendArtifact(enc []byte, cycles int) *MidendArtifact {
	return &MidendArtifact{enc: enc, Cycles: cycles}
}

// Sched returns the artifact's schedule plan. On first call for a
// revived artifact it decodes the program, lowers it exactly as the
// midend stage does, and decodes the plan over that graph, filling the
// program and graph fields too. Computed artifacts return their
// in-memory plan unconditionally.
func (ma *MidendArtifact) Sched() (*sched.Plan, error) {
	if ma.Schedule != nil {
		return ma.Schedule, nil
	}
	ma.decodeOnce.Do(func() {
		if ma.enc == nil {
			ma.decodeErr = fmt.Errorf("core: midend artifact has no encoding")
			return
		}
		if ma.decodeErr = ma.revive(); ma.decodeErr != nil {
			ma.decodeErr = fmt.Errorf("core: revive midend: %w", ma.decodeErr)
		}
	})
	return ma.Schedule, ma.decodeErr
}

func (ma *MidendArtifact) revive() error {
	d := wire.NewDecoder(ma.enc)
	d.Tag(midendTag)
	progEnc, planEnc := d.Bytes(), d.Bytes()
	if err := d.Finish(); err != nil {
		return err
	}
	prog, err := ir.DecodeProgram(progEnc)
	if err != nil {
		return err
	}
	// The frontend validated this program before it was encoded, so a
	// program that fails here was corrupted on the way, and lowering it
	// could hand the backend what it cannot build.
	if err := ir.Validate(prog); err != nil {
		return fmt.Errorf("core: revived program invalid: %w", err)
	}
	g, err := lower(prog)
	if err != nil {
		return err
	}
	p, err := sched.DecodePlan(planEnc, g)
	if err != nil {
		return err
	}
	ma.src = ReviveFrontendArtifact(progEnc)
	ma.Program, ma.Graph, ma.Schedule = prog, g, p
	ma.Cycles = p.NumStates
	return nil
}

// Materialize computes and stores the artifact's content Fingerprint,
// returning the lossless encoding it hashes (nil if the artifact failed
// to encode) so callers persisting the artifact reuse it instead of
// encoding again — the exact contract FrontendArtifact.Materialize
// carries. Call it from the goroutine that created the artifact, before
// sharing it.
func (ma *MidendArtifact) Materialize() []byte {
	enc, err := ma.encode()
	if err != nil {
		// Mirror the frontend's fallback for unencodable artifacts: a
		// stable (if uninformative) fingerprint, no reusable encoding.
		ma.Fingerprint = ir.HashText("unencodable-midend|" + ma.Key)
		return nil
	}
	ma.Fingerprint = ir.FingerprintBytes(enc)
	return enc
}

func (ma *MidendArtifact) encode() ([]byte, error) {
	p, err := ma.Sched()
	if err != nil {
		return nil, err
	}
	if ma.src == nil {
		return nil, fmt.Errorf("core: midend artifact has no program before lowering")
	}
	prog, err := ma.src.encoding()
	if err != nil {
		return nil, err
	}
	plan, err := sched.EncodePlan(p)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(32 + len(prog) + len(plan))
	e.Tag(midendTag)
	e.Bytes(prog)
	e.Bytes(plan)
	return e.Data(), nil
}

// Midend runs the scheduling stage: clone the frontend artifact's
// program (artifacts are shared across configurations, so the stage must
// not mutate its input), lower to the HTG, and schedule under the
// regime the options select.
func Midend(fa *FrontendArtifact, o MidendOptions) (*MidendArtifact, error) {
	prog, err := fa.Prog()
	if err != nil {
		return nil, err
	}
	ma, _, err := midend(ir.CloneProgram(prog), fa, o)
	if err != nil {
		return nil, err
	}
	ma.src = fa
	return ma, nil
}

// midend is Midend on a program the caller owns outright, also
// returning the fresh schedule with its report. Synthesize uses it to
// skip the defensive clone (its artifact is private to the call, so
// lowering may consume it in place) and to keep the report. The
// artifact it returns has no program before lowering to persist.
func midend(work *ir.Program, fa *FrontendArtifact, o MidendOptions) (*MidendArtifact, *sched.Result, error) {
	g, err := lower(work)
	if err != nil {
		return nil, nil, err
	}
	s, err := sched.Schedule(g, o.schedConfig(g))
	if err != nil {
		return nil, nil, fmt.Errorf("core: schedule: %w", err)
	}
	return &MidendArtifact{
		Program: work, Graph: g, Schedule: s.Plan,
		Cycles: s.NumStates, Key: MidendKey(fa, o),
	}, s, nil
}

// lower builds the HTG of a transformed program's main function, which
// must exist and be call-free. The midend stage and midend revival both
// lower through it, so a revived artifact's graph is the one its plan
// was scheduled on.
func lower(work *ir.Program) (*htg.Graph, error) {
	main := work.Main()
	if main == nil {
		return nil, fmt.Errorf("core: program has no main function")
	}
	if ir.Shape(main).Calls > 0 {
		return nil, fmt.Errorf("core: calls survive transformation (recursive or non-inlinable)")
	}
	g, err := htg.Lower(work, main)
	if err != nil {
		return nil, fmt.Errorf("core: lower: %w", err)
	}
	return g, nil
}

func (o MidendOptions) schedConfig(g *htg.Graph) sched.Config {
	cfg := sched.Config{Model: o.model(), DisableChaining: o.NoChaining}
	switch o.Preset {
	case MicroprocessorBlock:
		cfg.Mode = sched.ModeChain
		cfg.Resources = sched.Unlimited()
		// A design that kept loops (NoUnroll ablation or unbounded
		// loops) cannot flatten: fall back to sequential control.
		if g.HasLoops() {
			cfg.Mode = sched.ModeSequential
		}
	case ClassicalASIC:
		cfg.Mode = sched.ModeSequential
		cfg.Resources = sched.Classical()
	}
	return cfg
}

// BackendOptions is the subset of Options the backend stage reads: only
// the technology model the area/delay report is evaluated under.
type BackendOptions struct {
	Model *delay.Model // nil: delay.Default()
}

func (o BackendOptions) model() *delay.Model {
	if o.Model == nil {
		return delay.Default()
	}
	return o.Model
}

// BackendKey composes the backend stage key from the midend artifact's
// *content* fingerprint — not its stage key, so two option sets that
// converge on the same schedule share backend work (the same sharing
// rule MidendKey applies one stage up) — and the backend options. The
// model is hashed here because the midend fingerprint does not encode
// it: with no clock bound, two models can produce the same plan. Empty
// when the midend artifact was never materialized (the one-shot flow).
func BackendKey(ma *MidendArtifact, o BackendOptions) string {
	if ma.Fingerprint == "" {
		return ""
	}
	m := o.model()
	return ir.HashText(fmt.Sprintf("backend/v%d|me=%s|nand=%g clock=%g",
		BackendVersion, ma.Fingerprint, m.NandDelay, m.ClockPeriod))
}

// BackendArtifact is the output of the backend stage: the bound RTL
// netlist and its technology report.
type BackendArtifact struct {
	Module *rtl.Module
	Stats  delay.Report

	// modEnc holds the netlist's lossless encoding on artifacts revived
	// from disk; Mod decodes it on first use. The report shell decodes
	// eagerly at revival — it is a handful of flat fields.
	modEnc     []byte
	decodeOnce sync.Once
	decodeErr  error
}

// backendTag versions the backend artifact wire shell: the flat
// technology report followed by the netlist's lossless encoding.
const backendTag = "backend/1"

// Materialize returns the artifact's lossless encoding (nil if the
// module failed to encode): the bytes the exploration engine persists
// and ReviveBackendArtifact reads back. No stage key chains on a
// backend artifact, so unlike the other stages it carries no content
// fingerprint.
func (ba *BackendArtifact) Materialize() []byte {
	mod, err := rtl.EncodeModule(ba.Module)
	if err != nil {
		return nil
	}
	e := wire.NewEncoder(64 + len(mod))
	e.Tag(backendTag)
	e.Float64(ba.Stats.CriticalPath)
	e.Float64(ba.Stats.Area)
	e.Int(ba.Stats.Registers)
	e.Int(ba.Stats.Muxes)
	e.Int(ba.Stats.FUs)
	e.Bytes(mod)
	return e.Data()
}

// ReviveBackendArtifact rebuilds a backend artifact from its persisted
// encoding without decoding the netlist: the report shell — the only
// part sweep metrics read — is a few flat fields parsed here; the
// module bytes stay encoded until Mod is called (which only the
// simulation path does). Disk revival is hash-verified by the cache
// layer, so no decode or re-encode happens on this path.
func ReviveBackendArtifact(enc []byte) (*BackendArtifact, error) {
	d := wire.NewDecoder(enc)
	d.Tag(backendTag)
	ba := &BackendArtifact{}
	ba.Stats.CriticalPath = d.Float64()
	ba.Stats.Area = d.Float64()
	ba.Stats.Registers = d.Int()
	ba.Stats.Muxes = d.Int()
	ba.Stats.FUs = d.Int()
	ba.modEnc = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: revive backend: %w", err)
	}
	return ba, nil
}

// Mod returns the artifact's netlist, decoding the persisted encoding
// on first call for revived artifacts. Computed artifacts return their
// in-memory module unconditionally.
func (ba *BackendArtifact) Mod() (*rtl.Module, error) {
	if ba.Module != nil {
		return ba.Module, nil
	}
	ba.decodeOnce.Do(func() {
		if ba.modEnc == nil {
			ba.decodeErr = fmt.Errorf("core: backend artifact has no netlist encoding")
			return
		}
		m, err := rtl.DecodeModule(ba.modEnc)
		if err != nil {
			ba.decodeErr = fmt.Errorf("core: revive backend: %w", err)
			return
		}
		ba.Module = m
	})
	return ba.Module, ba.decodeErr
}

// Backend runs the binding/netlist stage on a scheduled design.
func Backend(ma *MidendArtifact, o BackendOptions) (*BackendArtifact, error) {
	s, err := ma.Sched()
	if err != nil {
		return nil, err
	}
	m, err := rtl.Build(s)
	if err != nil {
		return nil, fmt.Errorf("core: rtl: %w", err)
	}
	return &BackendArtifact{Module: m, Stats: m.Stats(o.model())}, nil
}

// FrontendOptions projects the option fields the frontend stage reads.
func (o Options) FrontendOptions() FrontendOptions {
	return FrontendOptions{Passes: o.PassSpecs(), Rounds: o.CustomRounds}
}

// MidendOptions projects the option fields the midend stage reads.
func (o Options) MidendOptions() MidendOptions {
	return MidendOptions{
		Preset:     o.Preset,
		Model:      o.Model,
		NoChaining: o.NoChaining,
	}
}

// BackendOptions projects the option fields the backend stage reads.
func (o Options) BackendOptions() BackendOptions {
	return BackendOptions{Model: o.Model}
}
