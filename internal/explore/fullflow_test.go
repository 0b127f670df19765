package explore_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparkgo/internal/explore"
)

// fullFlowSpace is the small grid the full-flow persistence tests
// sweep: one scale, every ablation variant, plus the classical
// baseline — enough to exercise both scheduling regimes and stage
// sharing without slowing the suite.
func fullFlowSpace() []explore.Config {
	return explore.Grid([]int{4}, explore.Variants(), []int{0}, true)
}

// TestFullFlowDiskPersistence is the acceptance scenario of the
// full-flow artifact persistence work: a cold sweep, a process restart
// (a fresh engine over the same cache directory) with the backend and
// point layers deleted from disk, and a re-sweep must revive frontend
// AND midend artifacts from disk — zero midend recomputes, every
// revived schedule fingerprint-verified before use (a verification
// failure would count as a disk error and a recompute) — and re-run
// only the backend.
func TestFullFlowDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	space := fullFlowSpace()

	// Cold sweep: populate every layer of the disk cache.
	cold := &explore.Engine{SimTrials: 1, CacheDir: dir}
	coldPts := cold.Sweep(space)
	for _, p := range coldPts {
		if p.Err != "" {
			t.Fatalf("cold sweep failed: %s: %s", p.Config, p.Err)
		}
	}
	cs := cold.Stats()
	if cs.MidendComputed == 0 || cs.BackendComputed == 0 {
		t.Fatalf("cold sweep computed no midend/backend artifacts: %+v", cs)
	}
	if cs.DiskErrors != 0 {
		t.Fatalf("cold sweep hit disk errors: %+v", cs)
	}

	// "Process restart": a fresh engine over the same directory, which
	// has lost every backend artifact and point.
	for _, kind := range []string{"backend", "point"} {
		if err := os.RemoveAll(filepath.Join(dir, explore.DiskSchema(), kind)); err != nil {
			t.Fatal(err)
		}
	}
	warm := &explore.Engine{SimTrials: 1, CacheDir: dir}
	warmPts := warm.Sweep(space)
	for _, p := range warmPts {
		if p.Err != "" {
			t.Fatalf("disk-warm sweep failed: %s: %s", p.Config, p.Err)
		}
	}
	ws := warm.Stats()
	if ws.FrontendDiskHits == 0 {
		t.Errorf("no frontend disk hits on the restarted sweep: %+v", ws)
	}
	if ws.MidendDiskHits == 0 {
		t.Errorf("no midend disk hits on the restarted sweep: %+v", ws)
	}
	if ws.MidendComputed != 0 {
		t.Errorf("restarted sweep recomputed %d midend artifacts, want 0: %+v", ws.MidendComputed, ws)
	}
	if ws.FrontendComputed != 0 {
		t.Errorf("restarted sweep recomputed %d frontend artifacts, want 0: %+v", ws.FrontendComputed, ws)
	}
	if ws.BackendComputed == 0 {
		t.Errorf("restarted sweep computed no backend artifacts (they were deleted): %+v", ws)
	}
	if ws.PointDiskHits != 0 {
		t.Errorf("restarted sweep hit %d points on disk after they were deleted", ws.PointDiskHits)
	}
	if ws.DiskErrors != 0 {
		t.Errorf("restarted sweep hit disk errors (failed revival verifications?): %+v", ws)
	}

	// Determinism of the revived path: backends built on revived
	// schedules must produce the points the cold sweep computed from
	// source.
	for i := range space {
		if !reflect.DeepEqual(coldPts[i], warmPts[i]) {
			t.Errorf("%s: revived evaluation diverged from cold evaluation:\n  cold: %+v\n  revived: %+v",
				space[i], coldPts[i], warmPts[i])
		}
	}

	// GC attributes every byte on disk to the layer that wrote it.
	gc, err := (&explore.Engine{CacheDir: dir}).CacheGC(0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, k := range gc.Kinds {
		kinds = append(kinds, k.Kind)
	}
	if want := []string{"backend", "frontend", "midend", "point"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("GC kinds = %v, want %v: %+v", kinds, want, gc.Kinds)
	}
}

// TestBackendDiskRevival changes only the simulation depth across the
// restart: every point key misses but all three stage artifacts —
// including the backend netlist — revive from disk, so the restarted
// sweep runs zero synthesis stages.
func TestBackendDiskRevival(t *testing.T) {
	dir := t.TempDir()
	space := fullFlowSpace()

	cold := &explore.Engine{SimTrials: 1, CacheDir: dir}
	for _, p := range cold.Sweep(space) {
		if p.Err != "" {
			t.Fatalf("cold sweep failed: %s: %s", p.Config, p.Err)
		}
	}

	warm := &explore.Engine{SimTrials: 2, CacheDir: dir}
	for _, p := range warm.Sweep(space) {
		if p.Err != "" {
			t.Fatalf("re-simulated sweep failed: %s: %s", p.Config, p.Err)
		}
	}
	ws := warm.Stats()
	if ws.FrontendDiskHits == 0 || ws.MidendDiskHits == 0 || ws.BackendDiskHits == 0 {
		t.Errorf("stage artifacts did not revive from disk: %+v", ws)
	}
	if ws.FrontendComputed+ws.MidendComputed+ws.BackendComputed != 0 {
		t.Errorf("re-simulated sweep recomputed stages (fe=%d me=%d be=%d), want all revived",
			ws.FrontendComputed, ws.MidendComputed, ws.BackendComputed)
	}

	// Determinism across revival: a fully cold engine at the same
	// simulation depth must score every point identically.
	ref := &explore.Engine{SimTrials: 2}
	refPts := ref.Sweep(space)
	warmPts := warm.Sweep(space) // in-memory now; same values
	for i := range space {
		if !reflect.DeepEqual(refPts[i], warmPts[i]) {
			t.Errorf("%s: revived evaluation diverged from cold evaluation:\n  cold: %+v\n  revived: %+v",
				space[i], refPts[i], warmPts[i])
		}
	}
}

// corruptKind flips the payloads of every artifact file of one kind in
// the cache directory, returning how many files were garbled.
func corruptKind(t *testing.T, dir, kind string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Ext(path) != ".art" {
			return nil
		}
		if !strings.Contains(path, string(filepath.Separator)+kind+string(filepath.Separator)) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Keep the length, trash the tail: the header may survive, the
		// payload (or its fingerprint) cannot.
		for i := len(data) / 2; i < len(data); i++ {
			data[i] ^= 0xa5
		}
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCorruptMidendArtifactsAreCleanMisses garbles every persisted
// midend artifact and asserts the next process treats them as misses —
// recomputing instead of trusting an unverifiable revival — and still
// produces correct points.
func TestCorruptMidendArtifactsAreCleanMisses(t *testing.T) {
	dir := t.TempDir()
	space := fullFlowSpace()

	cold := &explore.Engine{SimTrials: 1, CacheDir: dir}
	coldPts := cold.Sweep(space)

	if n := corruptKind(t, dir, "midend"); n == 0 {
		t.Fatal("no midend artifacts found to corrupt")
	}
	// Points would mask the stage caches entirely; drop them so the
	// corrupted midend layer is actually exercised.
	if n := corruptKind(t, dir, "point"); n == 0 {
		t.Fatal("no points found to corrupt")
	}

	warm := &explore.Engine{SimTrials: 1, CacheDir: dir}
	warmPts := warm.Sweep(space)
	for i, p := range warmPts {
		if p.Err != "" {
			t.Fatalf("sweep over corrupted cache failed: %s: %s", p.Config, p.Err)
		}
		if !reflect.DeepEqual(p, coldPts[i]) {
			t.Errorf("%s: corrupted cache changed the result: %+v vs %+v", space[i], p, coldPts[i])
		}
	}
	ws := warm.Stats()
	if ws.MidendDiskHits != 0 {
		t.Errorf("corrupted midend artifacts served %d disk hits, want 0", ws.MidendDiskHits)
	}
	if ws.MidendComputed == 0 {
		t.Error("corrupted midend artifacts were not recomputed")
	}
	if ws.DiskErrors == 0 {
		t.Error("corruption left no trace in DiskErrors")
	}
	// The frontend layer was untouched and must still serve from disk.
	if ws.FrontendDiskHits == 0 {
		t.Errorf("frontend disk hits vanished: %+v", ws)
	}
}

// TestCorruptStagePayloadsHeal garbles every persisted stage payload
// and asserts one recompute round repairs the disk: the engine after
// the healing one finds every stage artifact intact on disk.
func TestCorruptStagePayloadsHeal(t *testing.T) {
	dir := t.TempDir()
	space := fullFlowSpace()

	cold := &explore.Engine{SimTrials: 1, CacheDir: dir}
	for _, p := range cold.Sweep(space) {
		if p.Err != "" {
			t.Fatalf("cold sweep failed: %s: %s", p.Config, p.Err)
		}
	}
	n := 0
	for _, kind := range []string{"frontend", "midend", "backend", "cas"} {
		n += corruptKind(t, dir, kind)
	}
	if n == 0 {
		t.Fatal("no stage artifacts found to corrupt")
	}

	var last explore.Stats
	for round := 0; round < 2; round++ {
		// Points would mask the stage layers; drop them every round.
		if err := os.RemoveAll(filepath.Join(dir, explore.DiskSchema(), "point")); err != nil {
			t.Fatal(err)
		}
		e := &explore.Engine{SimTrials: 1, CacheDir: dir}
		for _, p := range e.Sweep(space) {
			if p.Err != "" {
				t.Fatalf("round %d failed: %s: %s", round, p.Config, p.Err)
			}
		}
		last = e.Stats()
	}
	if last.DiskErrors != 0 || last.MidendComputed != 0 || last.BackendComputed != 0 {
		t.Errorf("corrupt payloads were not healed by the first recompute round: %+v", last)
	}
}
