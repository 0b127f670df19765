package explore_test

import (
	"testing"

	"sparkgo/internal/explore"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/sched"
)

// TestDiskWarmSweepNeverDecodesStagePayloads is the acceptance assert
// of the streaming-hash revival work: a disk-warm sweep revives every
// stage artifact by hash verification alone. The program and schedule
// payloads must never be decoded — their blobs carry the metadata the
// sweep reads — and the netlist decodes exactly when simulation
// demands it, nowhere else. The package decode counters (monotonic
// process-wide atomics) make the claim checkable: tests in this
// package run sequentially, so the deltas bracket this sweep alone.
func TestDiskWarmSweepNeverDecodesStagePayloads(t *testing.T) {
	dir := t.TempDir()
	space := fullFlowSpace()

	cold := &explore.Engine{CacheDir: dir}
	for _, p := range cold.Sweep(space) {
		if p.Err != "" {
			t.Fatalf("cold sweep failed: %s: %s", p.Config, p.Err)
		}
	}

	// The restarted engine simulates, so every point key misses (the
	// trial count partitions point keys) while all three stage
	// artifacts revive from disk.
	progBefore := ir.ProgramDecodeCount()
	schedBefore := sched.PlanDecodeCount()
	modBefore := rtl.ModuleDecodeCount()

	warm := &explore.Engine{SimTrials: 1, CacheDir: dir}
	for _, p := range warm.Sweep(space) {
		if p.Err != "" {
			t.Fatalf("disk-warm sweep failed: %s: %s", p.Config, p.Err)
		}
	}
	ws := warm.Stats()
	if ws.FrontendDiskHits == 0 || ws.MidendDiskHits == 0 || ws.BackendDiskHits == 0 {
		t.Fatalf("stage artifacts did not revive from disk: %+v", ws)
	}
	if ws.FrontendComputed+ws.MidendComputed+ws.BackendComputed != 0 {
		t.Fatalf("disk-warm sweep recomputed stages (fe=%d me=%d be=%d), want all revived",
			ws.FrontendComputed, ws.MidendComputed, ws.BackendComputed)
	}
	if ws.DiskErrors != 0 {
		t.Fatalf("disk-warm sweep hit disk errors: %+v", ws)
	}

	if n := ir.ProgramDecodeCount() - progBefore; n != 0 {
		t.Errorf("disk-warm sweep decoded %d programs, want 0", n)
	}
	if n := sched.PlanDecodeCount() - schedBefore; n != 0 {
		t.Errorf("disk-warm sweep decoded %d schedules, want 0", n)
	}
	if n := rtl.ModuleDecodeCount() - modBefore; n == 0 {
		t.Errorf("simulation ran but no netlist was decoded — revival is not lazy, it skipped the module entirely")
	}

	// A second restart without simulation touches nothing at all: every
	// point hits the point cache written by the cold sweep, so not even
	// the netlist decodes.
	progBefore = ir.ProgramDecodeCount()
	schedBefore = sched.PlanDecodeCount()
	modBefore = rtl.ModuleDecodeCount()
	again := &explore.Engine{CacheDir: dir}
	for _, p := range again.Sweep(space) {
		if p.Err != "" {
			t.Fatalf("point-warm sweep failed: %s: %s", p.Config, p.Err)
		}
	}
	as := again.Stats()
	if as.PointDiskHits == 0 {
		t.Fatalf("point-warm sweep hit no points on disk: %+v", as)
	}
	if n := ir.ProgramDecodeCount() - progBefore; n != 0 {
		t.Errorf("point-warm sweep decoded %d programs, want 0", n)
	}
	if n := sched.PlanDecodeCount() - schedBefore; n != 0 {
		t.Errorf("point-warm sweep decoded %d schedules, want 0", n)
	}
	if n := rtl.ModuleDecodeCount() - modBefore; n != 0 {
		t.Errorf("point-warm sweep decoded %d netlists, want 0", n)
	}
}
