package script_test

import (
	"reflect"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/script"
)

func TestParseFullScript(t *testing.T) {
	s, err := script.Parse(`
# the paper's coordinated sequence
preset microprocessor
clock 0
inline
drop-uncalled
speculate
unroll all full
constprop
constfold
copyprop
cse
dce
rounds 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Preset != script.Microprocessor {
		t.Error("preset wrong")
	}
	if len(s.Passes) != 9 {
		t.Errorf("passes = %d, want 9", len(s.Passes))
	}
	if s.Rounds != 4 {
		t.Errorf("rounds = %d", s.Rounds)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"preset bogus",
		"clock x",
		"unroll",
		"unroll all 0",
		"unroll all -3",
		"frobnicate",
		"rounds 0",
	}
	for _, src := range bad {
		if _, err := script.Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestScriptDrivesSynthesis(t *testing.T) {
	s, err := script.Parse(`
preset microprocessor
inline
drop-uncalled
speculate
unroll all full
constprop
constfold
copyprop
cse
dce
rounds 6
`)
	if err != nil {
		t.Fatal(err)
	}
	p := ild.Program(4)
	res, err := core.Synthesize(p, core.FromScript(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 1 {
		t.Errorf("scripted flow: %d cycles, want 1", res.Cycles)
	}
	if err := core.Verify(res, 15, 3); err != nil {
		t.Fatal(err)
	}
}

func TestScriptPartialUnroll(t *testing.T) {
	// Partial unroll keeps the loop: the design falls back to
	// sequential control and still verifies.
	s, err := script.Parse(`
preset microprocessor
inline
drop-uncalled
unroll main.2 2
constprop
dce
`)
	if err != nil {
		t.Fatal(err)
	}
	p := ild.Program(4)
	res, err := core.Synthesize(p, core.FromScript(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(res, 10, 3); err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 1 {
		t.Errorf("partially unrolled loop should need several states, got %d", res.Cycles)
	}
}

func TestClassicalScript(t *testing.T) {
	s, err := script.Parse("preset classical\ninline\ndce")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.FromScript(s)
	if opt.Preset != core.ClassicalASIC {
		t.Error("classical preset not mapped")
	}
}

// TestScriptEqualsPassSpecs: a script is its pass specs — it
// synthesizes exactly what Options{Passes: <the same specs>} does, and
// its frontend stage gets a real cache key.
func TestScriptEqualsPassSpecs(t *testing.T) {
	s, err := script.Parse(`
inline
drop-uncalled
speculate
unroll   all full
const-prop
constfold
dce
rounds 3
`)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"inline", "drop-uncalled", "speculate", "unroll all full", "const-prop", "constfold", "dce"}
	if !reflect.DeepEqual(s.Passes, specs) {
		t.Fatalf("script passes = %q, want %q", s.Passes, specs)
	}
	p := ild.Program(4)
	scripted, err := core.Synthesize(p, core.FromScript(s))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Synthesize(p, core.Options{Passes: specs, CustomRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scripted.Stages, direct.Stages) {
		t.Errorf("stages differ:\nscript %+v\nspecs  %+v", scripted.Stages, direct.Stages)
	}
	if scripted.Cycles != direct.Cycles || scripted.Stats != direct.Stats {
		t.Errorf("script: %d cycles %+v; specs: %d cycles %+v",
			scripted.Cycles, scripted.Stats, direct.Cycles, direct.Stats)
	}
	fp := ir.Fingerprint(p)
	key := core.FrontendKeyFrom(fp, core.FromScript(s).FrontendOptions())
	if key == "" {
		t.Error("scripted run has an empty frontend key")
	}
	if want := core.FrontendKeyFrom(fp, core.Options{Passes: specs, CustomRounds: 3}.FrontendOptions()); key != want {
		t.Errorf("script frontend key %s, want the pass-spec key %s", key, want)
	}
}
