package core_test

import (
	"fmt"
	"slices"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/pass"
	"sparkgo/internal/rtl"
)

// TestFrontendStagesMatchRecount pins the frontend's stage metrics, which
// copy the previous row when an application changes nothing, against a
// full recount after every application.
func TestFrontendStagesMatchRecount(t *testing.T) {
	plans := map[string][]string{
		"micro":                 pass.MicroprocessorPlan(pass.Toggles{}),
		"micro+normalize-while": pass.MicroprocessorPlan(pass.Toggles{NormalizeWhile: true}),
		"classical":             pass.ClassicalPlan(pass.Toggles{}),
		"no-speculation":        pass.MicroprocessorPlan(pass.Toggles{NoSpeculation: true}),
		"no-unroll":             pass.MicroprocessorPlan(pass.Toggles{NoUnroll: true}),
	}
	for _, n := range []int{4, 8, 16} {
		for form, prog := range map[string]*ir.Program{"ild": ild.Program(n), "natural": ild.NaturalProgram(n)} {
			for name, specs := range plans {
				t.Run(fmt.Sprintf("%s%d/%s", form, n, name), func(t *testing.T) {
					fa, err := core.Frontend(prog, core.FrontendOptions{Passes: specs})
					if err != nil {
						t.Fatal(err)
					}
					passes, err := pass.BuildAll(specs)
					if err != nil {
						t.Fatal(err)
					}
					var want []core.StageMetrics
					pl := &pass.Pipeline{Passes: passes, Observer: func(name string, changed bool, p *ir.Program) {
						c := ir.Shape(p.Main())
						want = append(want, core.StageMetrics{
							Pass: name, Changed: changed,
							Stmts: c.Stmts, Ops: c.Ops, Ifs: c.Ifs, Loops: c.Loops, Calls: c.Calls,
							Funcs: len(p.Funcs),
						})
					}}
					if err := pl.Run(ir.CloneProgram(prog)); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(fa.Stages, want) {
						t.Errorf("stages differ from a full recount\ngot:  %v\nwant: %v", fa.Stages, want)
					}
				})
			}
		}
	}
}

// TestStagedMatchesSynthesize checks that driving the three stages by
// hand produces exactly the design Synthesize produces — same schedule
// depth, same netlist text, same report.
func TestStagedMatchesSynthesize(t *testing.T) {
	for _, opt := range []core.Options{
		{Preset: core.MicroprocessorBlock},
		{Preset: core.ClassicalASIC},
		{Preset: core.MicroprocessorBlock, NoChaining: true, MaxUnroll: 8},
	} {
		p := ild.Program(4)
		mono, err := core.Synthesize(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := core.Frontend(p, opt.FrontendOptions())
		if err != nil {
			t.Fatal(err)
		}
		ma, err := core.Midend(fa, opt.MidendOptions())
		if err != nil {
			t.Fatal(err)
		}
		ba, err := core.Backend(ma, opt.BackendOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ma.Cycles != mono.Cycles {
			t.Errorf("%+v: staged cycles %d != monolithic %d", opt, ma.Cycles, mono.Cycles)
		}
		if ba.Stats != mono.Stats {
			t.Errorf("%+v: staged stats %+v != monolithic %+v", opt, ba.Stats, mono.Stats)
		}
		if rtl.EmitVerilog(ba.Module) != rtl.EmitVerilog(mono.Module) {
			t.Errorf("%+v: staged netlist diverges from monolithic flow", opt)
		}
	}
}

// TestFrontendKeyReadsOnlyFrontendFields pins the artifact-key contract:
// back-end knobs must not perturb the frontend key (that is what lets a
// sweep share frontend runs), while every frontend-relevant field must.
func TestFrontendKeyReadsOnlyFrontendFields(t *testing.T) {
	fp := ir.Fingerprint(ild.Program(4))
	base := core.Options{Preset: core.MicroprocessorBlock}
	key := core.FrontendKeyFrom(fp, base.FrontendOptions())
	if key == "" {
		t.Fatal("empty frontend key for hashable options")
	}

	// Back-end knobs: key must be identical.
	for name, o := range map[string]core.Options{
		"nochaining": {Preset: core.MicroprocessorBlock, NoChaining: true},
		"model":      {Preset: core.MicroprocessorBlock, Model: nil},
	} {
		if k := core.FrontendKeyFrom(fp, o.FrontendOptions()); k != key {
			t.Errorf("%s changed the frontend key", name)
		}
	}

	// Frontend-relevant changes: key must differ.
	for name, o := range map[string]core.Options{
		"preset-plan": {Preset: core.ClassicalASIC},
		"nospec":      {Preset: core.MicroprocessorBlock, NoSpeculation: true},
		"maxunroll":   {Preset: core.MicroprocessorBlock, MaxUnroll: 2},
		"rounds":      {Preset: core.MicroprocessorBlock, CustomRounds: 1},
		"passes":      {Passes: []string{"inline", "dce"}},
	} {
		if k := core.FrontendKeyFrom(fp, o.FrontendOptions()); k == key {
			t.Errorf("%s did not change the frontend key", name)
		}
	}

	// A different source must change the key too.
	if k := core.FrontendKeyFrom(ir.Fingerprint(ild.Program(5)), base.FrontendOptions()); k == key {
		t.Error("different source, same frontend key")
	}
	// Same content, different pointer: identical key (content hashing).
	if k := core.FrontendKeyFrom(ir.Fingerprint(ild.Program(4)), base.FrontendOptions()); k != key {
		t.Error("identical source content produced a different frontend key")
	}
}

// TestMidendKeysOnArtifactContent checks midend keys derive from the
// frontend artifact's content fingerprint plus midend options only.
func TestMidendKeysOnArtifactContent(t *testing.T) {
	p := ild.Program(4)
	opt := core.Options{Preset: core.MicroprocessorBlock}
	fa, err := core.Frontend(p, opt.FrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	if k := core.MidendKey(fa, opt.MidendOptions()); k != "" {
		t.Fatalf("midend key %q before materialization, want empty", k)
	}
	fa.Materialize()
	base := core.MidendKey(fa, opt.MidendOptions())
	if base == "" {
		t.Fatal("empty midend key after materialization")
	}
	nochain := core.Options{Preset: core.MicroprocessorBlock, NoChaining: true}
	if k := core.MidendKey(fa, nochain.MidendOptions()); k == base {
		t.Error("chaining switch did not change the midend key")
	}
	classical := core.Options{Preset: core.ClassicalASIC}
	if k := core.MidendKey(fa, classical.MidendOptions()); k == base {
		t.Error("preset did not change the midend key")
	}
}

// TestMidendDoesNotMutateArtifact: frontend artifacts are shared across
// configurations, so scheduling one configuration must not change the
// artifact another is about to consume.
func TestMidendDoesNotMutateArtifact(t *testing.T) {
	fa, err := core.Frontend(ild.Program(4),
		core.Options{Preset: core.MicroprocessorBlock}.FrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	fa.Materialize()
	before := ir.Fingerprint(fa.Program)
	if before != fa.Fingerprint {
		t.Fatalf("artifact fingerprint %s does not match its program", fa.Fingerprint)
	}
	for _, opt := range []core.Options{
		{Preset: core.MicroprocessorBlock},
		{Preset: core.ClassicalASIC},
	} {
		if _, err := core.Midend(fa, opt.MidendOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if after := ir.Fingerprint(fa.Program); after != before {
		t.Fatal("Midend mutated the shared frontend artifact")
	}
}

// TestFrontendArtifactSelfConsistency: the artifact's fingerprint must
// be the content hash of its program.
func TestFrontendArtifactSelfConsistency(t *testing.T) {
	fa, err := core.Frontend(ild.Program(3),
		core.Options{Preset: core.MicroprocessorBlock}.FrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fa.Fingerprint != "" {
		t.Error("Frontend paid for content identity the one-shot path never reads")
	}
	enc := fa.Materialize()
	if ir.Fingerprint(fa.Program) != fa.Fingerprint {
		t.Error("artifact fingerprint is not the content hash of its program")
	}
	if enc == nil || ir.FingerprintBytes(enc) != fa.Fingerprint {
		t.Error("Materialize's returned encoding does not hash to the fingerprint")
	}
	if fa.Rounds < 1 || len(fa.PassStats) == 0 {
		t.Errorf("artifact metadata incomplete: rounds=%d stats=%d",
			fa.Rounds, len(fa.PassStats))
	}
}
