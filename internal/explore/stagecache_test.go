package explore_test

import (
	"context"
	"reflect"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/pass"
)

// microPlan is the paper's full coordinated pass list, used as an
// explicit pass-order so configs can vary back-end knobs only.
func microPlan() []string {
	return pass.MicroprocessorPlan(pass.Toggles{})
}

// TestFrontendSharedAcrossBackendKnobs is the stage-cache acceptance
// test: across a sweep whose configurations differ only in back-end
// knobs (chaining switch, scheduling preset), the frontend must run
// exactly once per unique (source, pass-list) pair while every
// configuration still evaluates fully.
func TestFrontendSharedAcrossBackendKnobs(t *testing.T) {
	plan := microPlan()
	space := []explore.Config{
		{N: 4, Preset: core.MicroprocessorBlock, Passes: plan},
		{N: 4, Preset: core.MicroprocessorBlock, Passes: plan, NoChaining: true},
		{N: 4, Preset: core.ClassicalASIC, Passes: plan},
		{N: 4, Preset: core.ClassicalASIC, Passes: plan, NoChaining: true},
	}
	eng := &explore.Engine{Workers: 4}
	pts := eng.Sweep(space)
	for i, p := range pts {
		if p.Err != "" {
			t.Fatalf("config %q failed: %s", space[i].String(), p.Err)
		}
	}
	st := eng.Stats()
	if st.FrontendComputed != 1 {
		t.Fatalf("frontend ran %d times for one (source, pass-list), want exactly 1", st.FrontendComputed)
	}
	if st.FrontendMemHits != int64(len(space)-1) {
		t.Errorf("frontend memory hits = %d, want %d", st.FrontendMemHits, len(space)-1)
	}
	if st.PointComputed != int64(len(space)) {
		t.Errorf("points computed = %d, want %d (all configs distinct)", st.PointComputed, len(space))
	}
	// The knobs must still matter: chaining off must not beat chaining
	// on, and the two presets must schedule differently.
	if pts[0].Cycles != 1 {
		t.Errorf("coordinated config cycles = %d, want 1", pts[0].Cycles)
	}
	if pts[2].Cycles <= pts[0].Cycles {
		t.Errorf("classical preset (%d cycles) not slower than coordinated (%d)",
			pts[2].Cycles, pts[0].Cycles)
	}
}

// TestFrontendSharedUnderToggleDefaults checks the same sharing through
// the preset-plan path (no explicit pass list): NoChaining is a pure
// scheduler knob, so toggling it must not re-run the frontend, while a
// pass-level toggle (NoSpeculation) must.
func TestFrontendSharedUnderToggleDefaults(t *testing.T) {
	space := []explore.Config{
		{N: 3, Preset: core.MicroprocessorBlock},
		{N: 3, Preset: core.MicroprocessorBlock, NoChaining: true},
		{N: 3, Preset: core.MicroprocessorBlock, NoSpeculation: true},
	}
	eng := &explore.Engine{Workers: 1}
	for i, c := range space {
		if p := eng.Evaluate(context.Background(), c); p.Err != "" {
			t.Fatalf("config %d: %s", i, p.Err)
		}
	}
	st := eng.Stats()
	if st.FrontendComputed != 2 {
		t.Fatalf("frontend computed %d times, want 2 (shared plan + nospec plan)", st.FrontendComputed)
	}
}

// TestDiskCacheAcrossEngines is the disk-cache acceptance test: a second
// engine — standing in for a fresh process — pointed at the same cache
// directory must serve the whole sweep from on-disk artifacts without
// synthesizing anything, and must return identical points.
func TestDiskCacheAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	space := append(smallGrid()[:10], explore.Config{
		N: 3, Preset: core.MicroprocessorBlock, Passes: microPlan(),
	})
	cold := &explore.Engine{Workers: 4, SimTrials: 1, CacheDir: dir}
	first := cold.Sweep(space)
	if st := cold.Stats(); st.PointComputed != int64(len(space)) || st.DiskErrors != 0 {
		t.Fatalf("cold engine: %+v, want %d computed and no disk errors", st, len(space))
	}

	warm := &explore.Engine{Workers: 4, SimTrials: 1, CacheDir: dir}
	second := warm.Sweep(space)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("disk-warm sweep returned different points than the cold sweep")
	}
	st := warm.Stats()
	if st.PointComputed != 0 {
		t.Fatalf("disk-warm engine synthesized %d configs, want 0", st.PointComputed)
	}
	if st.PointDiskHits != int64(len(space)) {
		t.Fatalf("disk hits = %d, want %d", st.PointDiskHits, len(space))
	}
	if st.FrontendComputed != 0 {
		t.Fatalf("disk-warm engine ran the frontend %d times, want 0", st.FrontendComputed)
	}
	if st.DiskErrors != 0 {
		t.Fatalf("disk errors = %d", st.DiskErrors)
	}
}

// TestFrontendDiskArtifactRoundTrip proves the frontend artifact itself
// survives the disk (print → gob → parse): a fresh engine evaluating a
// configuration that shares only the (source, pass-list) prefix with
// what is on disk must revive the frontend artifact instead of
// re-transforming, and must produce exactly the point a disk-less
// engine computes from scratch.
func TestFrontendDiskArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plan := microPlan()
	base := explore.Config{N: 4, Preset: core.MicroprocessorBlock, Passes: plan}
	knob := base
	knob.NoChaining = true

	a := &explore.Engine{Workers: 1, CacheDir: dir}
	if p := a.Evaluate(context.Background(), base); p.Err != "" {
		t.Fatal(p.Err)
	}

	b := &explore.Engine{Workers: 1, CacheDir: dir}
	got := b.Evaluate(context.Background(), knob) // point not on disk; frontend is
	if got.Err != "" {
		t.Fatal(got.Err)
	}
	st := b.Stats()
	if st.FrontendDiskHits != 1 || st.FrontendComputed != 0 {
		t.Fatalf("frontend disk hits = %d, computed = %d; want 1, 0 — artifact did not revive",
			st.FrontendDiskHits, st.FrontendComputed)
	}
	if st.DiskErrors != 0 {
		t.Fatalf("disk errors = %d (artifact failed round-trip verification?)", st.DiskErrors)
	}
	want := (&explore.Engine{Workers: 1}).Evaluate(context.Background(), knob)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("point from revived frontend artifact diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestSimTrialsPartitionDiskPoints: the simulation depth is part of the
// point's disk identity, so an engine with different SimTrials must not
// reuse another's evaluated points (the frontend artifact, which does
// not depend on it, is still shared).
func TestSimTrialsPartitionDiskPoints(t *testing.T) {
	dir := t.TempDir()
	c := explore.Config{N: 3, Preset: core.MicroprocessorBlock}
	a := &explore.Engine{SimTrials: 0, CacheDir: dir}
	a.Evaluate(context.Background(), c)
	b := &explore.Engine{SimTrials: 2, CacheDir: dir}
	if p := b.Evaluate(context.Background(), c); p.Err != "" {
		t.Fatal(p.Err)
	}
	st := b.Stats()
	if st.PointDiskHits != 0 || st.PointComputed != 1 {
		t.Fatalf("engine with different SimTrials reused disk points: %+v", st)
	}
	if st.FrontendDiskHits != 1 {
		t.Errorf("frontend artifact not shared across SimTrials: %+v", st)
	}
}

const srcSatAdd = `
uint8 a;
uint8 b;
uint8 out;
void main() {
  uint8 s;
  s = a + b;
  if (s < a) {
    s = 255;
  }
  out = s;
}
`

const srcAbsDiff = `
uint8 a;
uint8 b;
uint8 out;
void main() {
  if (a > b) {
    out = a - b;
  } else {
    out = b - a;
  }
}
`

// TestMultiSourceSweep batches two parsed user programs into one sweep
// via the engine's source table — the multi-program axis — and checks
// per-source frontend sharing plus full evaluation of every config.
func TestMultiSourceSweep(t *testing.T) {
	satadd, err := parser.Parse("satadd", srcSatAdd)
	if err != nil {
		t.Fatal(err)
	}
	absdiff, err := parser.Parse("absdiff", srcAbsDiff)
	if err != nil {
		t.Fatal(err)
	}
	eng := &explore.Engine{
		Workers:   4,
		SimTrials: 1,
		Sources: map[string]*ir.Program{
			"satadd":  satadd,
			"absdiff": absdiff,
		},
	}
	plan := microPlan()
	var space []explore.Config
	for _, name := range []string{"satadd", "absdiff"} {
		space = append(space,
			explore.Config{Source: name, Preset: core.MicroprocessorBlock, Passes: plan},
			explore.Config{Source: name, Preset: core.MicroprocessorBlock, Passes: plan, NoChaining: true},
			explore.Config{Source: name, Preset: core.ClassicalASIC, Passes: plan},
		)
	}
	pts := eng.Sweep(space)
	for i, p := range pts {
		if p.Err != "" {
			t.Fatalf("config %q failed: %s", space[i].String(), p.Err)
		}
		if p.Cycles < 1 || p.Area <= 0 {
			t.Fatalf("config %q: degenerate point %+v", space[i].String(), p)
		}
	}
	st := eng.Stats()
	if st.FrontendComputed != 2 {
		t.Fatalf("frontend computed %d times for 2 sources × 1 pass list, want 2", st.FrontendComputed)
	}
	if st.PointComputed != int64(len(space)) {
		t.Errorf("points computed = %d, want %d", st.PointComputed, len(space))
	}
	// Distinct programs must yield distinct designs under the same config.
	if pts[0].Area == pts[3].Area && pts[0].CritPath == pts[3].CritPath {
		t.Errorf("satadd and absdiff produced identical designs: %+v", pts[0])
	}

	// A config naming an unregistered source must fail cleanly, not panic.
	bad := eng.Evaluate(context.Background(), explore.Config{Source: "nope", Preset: core.MicroprocessorBlock})
	if bad.Err == "" {
		t.Fatal("unknown source evaluated without error")
	}
}

// TestGridSources pins the multi-source grid builder: per-source shape
// mirrors Grid's per-size shape, and every config carries its source.
func TestGridSources(t *testing.T) {
	names := []string{"a", "b"}
	space := explore.GridSources(names, explore.Variants(), []int{0, 8}, true)
	perSource := len(explore.Variants())*2 + 1
	if len(space) != perSource*len(names) {
		t.Fatalf("got %d configs, want %d", len(space), perSource*len(names))
	}
	seen := map[uint64]string{}
	for _, c := range space {
		if c.Source != "a" && c.Source != "b" {
			t.Fatalf("config without source: %q", c.String())
		}
		if prev, dup := seen[c.Key()]; dup {
			t.Fatalf("duplicate key for %q and %q", prev, c.String())
		}
		seen[c.Key()] = c.String()
	}
}
