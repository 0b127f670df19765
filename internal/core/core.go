// Package core is the sparkgo synthesizer: the coordinated application of
// source-level parallelizing transformations, chaining-aware scheduling,
// binding, and RTL generation that the Spark paper presents as its
// contribution (§6).
//
// Synthesis is an explicitly staged flow. Each stage consumes a
// content-hashed artifact plus only the option fields it actually reads,
// and returns a hashable artifact of its own:
//
//	Frontend  behavioral C → pass pipeline to fixpoint → FrontendArtifact
//	          (transformed IR + canonical source + fingerprint)
//	          reads: pass list, fixpoint bound
//	Midend    FrontendArtifact → HTG lowering → scheduling → MidendArtifact
//	          (task graph + FSM schedule)
//	          reads: preset, delay model, resources, chaining switch
//	Backend   MidendArtifact → binding → netlist → BackendArtifact
//	          (RTL module + area/delay report)
//	          reads: delay model
//
// Every artifact carries a stage key — a SHA-256 over the consumed
// artifact's fingerprint, the canonical rendering of the options read,
// and a per-stage version constant (FrontendVersion etc., bumped to
// invalidate cached artifacts when stage semantics change). The
// exploration engine (internal/explore) memoizes on these keys, in
// memory and on disk, so configurations that differ only in back-end
// knobs share one frontend run and sweeps survive process restarts.
//
// Synthesize composes the three stages into the paper's one-call flow:
//
//	behavioral C  →  inline (Fig 12)  →  speculate (Fig 11)
//	              →  unroll fully (Fig 13)  →  propagate constants (Fig 14)
//	              →  clean (copy-prop, CSE, DCE)
//	              →  schedule with chaining across conditionals (§3.1)
//	              →  datapath + FSM netlist (Fig 15b)  →  VHDL / Verilog
//
// Presets select between the paper's microprocessor-block regime
// (unlimited resources, full parallelization, single-cycle goal) and the
// classical-HLS baseline it contrasts against (resource-constrained,
// no code motion, sequential FSM). Individual transformations can be
// disabled for the ablation experiments of DESIGN.md (A1–A4).
package core

import (
	"sparkgo/internal/delay"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/pass"
	"sparkgo/internal/rtl"
	"sparkgo/internal/sched"
)

// Preset selects a synthesis regime.
type Preset int

const (
	// MicroprocessorBlock is the paper's regime: unlimited resources,
	// every coordinated transformation, chaining across conditionals,
	// no clock bound (the achieved critical path is reported).
	MicroprocessorBlock Preset = iota
	// ClassicalASIC is the baseline: a small fixed resource allocation,
	// no parallelizing code motions, sequential FSM scheduling.
	ClassicalASIC
)

func (p Preset) String() string {
	if p == MicroprocessorBlock {
		return "microprocessor-block"
	}
	return "classical-asic"
}

// Options configures a synthesis run. The zero value is the
// MicroprocessorBlock preset with the default delay model.
type Options struct {
	Preset    Preset
	Model     *delay.Model
	MaxUnroll int // 0: transform.DefaultMaxUnroll

	// Ablation switches (DESIGN.md experiments A1-A4).
	NoSpeculation bool
	NoUnroll      bool
	NoConstProp   bool
	NoChaining    bool
	NoCSE         bool
	// NormalizeWhile enables the Fig 16 while→for source transformation
	// before everything else.
	NormalizeWhile bool

	// Passes, when non-empty, replaces the preset pipeline with an
	// explicit ordered pass list in internal/pass spec syntax (e.g.
	// "inline", "speculate", "unroll all full"). This is the knob the
	// exploration engine sweeps and the one synthesis scripts (§4 of
	// the paper) set; the ablation switches above are shorthands that
	// resolve to a pass list via PassSpecs.
	Passes []string
	// CustomRounds bounds fixed-point iteration of the pipeline
	// (0 = pass.DefaultMaxRounds).
	CustomRounds int
}

// Toggles converts the ablation switches to a pass-plan toggle set.
func (o Options) Toggles() pass.Toggles {
	return pass.Toggles{
		NoSpeculation:  o.NoSpeculation,
		NoUnroll:       o.NoUnroll,
		NoConstProp:    o.NoConstProp,
		NoCSE:          o.NoCSE,
		NormalizeWhile: o.NormalizeWhile,
		MaxUnroll:      o.MaxUnroll,
	}
}

// PassSpecs returns the ordered pass list this Options resolves to: the
// explicit Passes when set, otherwise the preset plan under the ablation
// toggles.
func (o Options) PassSpecs() []string {
	if len(o.Passes) > 0 {
		return o.Passes
	}
	if o.Preset == MicroprocessorBlock {
		return pass.MicroprocessorPlan(o.Toggles())
	}
	return pass.ClassicalPlan(o.Toggles())
}

// StageMetrics snapshots program shape after one transformation stage —
// the per-figure numbers EXPERIMENTS.md reports.
type StageMetrics struct {
	Pass    string
	Changed bool
	Stmts   int
	Ops     int
	Ifs     int
	Loops   int
	Calls   int
	Funcs   int
}

// Result is a completed synthesis.
type Result struct {
	Input     *ir.Program // untouched original
	Program   *ir.Program // transformed program (the copy the graph references)
	Graph     *htg.Graph
	Schedule  *sched.Result // the fresh schedule: plan and report
	Module    *rtl.Module
	Stages    []StageMetrics
	PassStats []pass.Stat // per-pass runs/changes/wall time
	Rounds    int         // pipeline rounds executed to reach fixpoint
	Stats     delay.Report
	Cycles    int // FSM states (lower bound on latency; loops add trips)
	Preset    Preset
}

// Synthesize runs the full flow on a behavioral program: the three
// stages (Frontend, Midend, Backend) composed back-to-back. Callers that
// want artifact reuse across runs — many configurations over one source
// — drive the stages individually (internal/explore does).
func Synthesize(input *ir.Program, opt Options) (*Result, error) {
	fa, err := Frontend(input, opt.FrontendOptions())
	if err != nil {
		return nil, err
	}
	// The artifact is private to this call, so the midend may consume
	// its program without the defensive clone shared artifacts need.
	ma, schedule, err := midend(fa.Program, fa, opt.MidendOptions())
	if err != nil {
		return nil, err
	}
	ba, err := Backend(ma, opt.BackendOptions())
	if err != nil {
		return nil, err
	}
	return &Result{
		Input:     input,
		Program:   ma.Program,
		Graph:     ma.Graph,
		Schedule:  schedule,
		Module:    ba.Module,
		Stages:    fa.Stages,
		PassStats: fa.PassStats,
		Rounds:    fa.Rounds,
		Stats:     ba.Stats,
		Cycles:    ma.Cycles,
		Preset:    opt.Preset,
	}, nil
}
