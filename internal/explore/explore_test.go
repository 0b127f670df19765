package explore_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/service"
)

// smallGrid is the cheap sweep space the concurrency tests use: tiny ILD
// buffers keep a single synthesis in the millisecond range while still
// exercising every toggle axis.
func smallGrid() []explore.Config {
	return explore.Grid([]int{2, 3, 4, 6}, explore.Variants(), []int{0, 8}, true)
}

// TestGridSize pins the acceptance-size sweep space: the standard grid
// must hold at least 48 configurations with no duplicate cache keys.
func TestGridSize(t *testing.T) {
	space := smallGrid()
	if len(space) < 48 {
		t.Fatalf("grid has %d configs, want >= 48", len(space))
	}
	seen := map[uint64]string{}
	for _, c := range space {
		if prev, dup := seen[c.Key()]; dup {
			t.Fatalf("duplicate key for %q and %q", prev, c.String())
		}
		seen[c.Key()] = c.String()
	}
}

// TestSweepMatchesColdSynthesis sweeps the full grid concurrently and
// checks every cached point against a cold, direct synthesis through a
// fresh engine — the cache must be invisible in the results.
func TestSweepMatchesColdSynthesis(t *testing.T) {
	space := smallGrid()
	eng := &explore.Engine{Workers: 8, SimTrials: 1}
	pts := eng.Sweep(space)
	if len(pts) != len(space) {
		t.Fatalf("got %d points for %d configs", len(pts), len(space))
	}
	hits, misses := eng.CacheStats()
	if misses != int64(len(space)) || hits != 0 {
		t.Fatalf("cold sweep: hits=%d misses=%d, want 0/%d", hits, misses, len(space))
	}
	for i, p := range pts {
		if p.Err != "" {
			t.Fatalf("config %q failed: %s", space[i].String(), p.Err)
		}
		if p.Cycles < 1 || p.Area <= 0 {
			t.Fatalf("config %q: degenerate point %+v", space[i].String(), p)
		}
	}
	// Cold spot-check: re-evaluate a spread of configs with fresh
	// engines (empty caches) and require identical points.
	for i := 0; i < len(space); i += 7 {
		cold := (&explore.Engine{Workers: 1, SimTrials: 1}).Evaluate(context.Background(), space[i])
		if !reflect.DeepEqual(cold, pts[i]) {
			t.Errorf("config %q: cached %+v != cold %+v", space[i].String(), pts[i], cold)
		}
	}
}

// TestSweepCacheHitPath re-sweeps the same space on a warm engine and
// asserts every lookup hits the cache and returns identical points.
func TestSweepCacheHitPath(t *testing.T) {
	space := smallGrid()[:12]
	eng := &explore.Engine{Workers: 4}
	first := eng.Sweep(space)
	_, misses0 := eng.CacheStats()
	second := eng.Sweep(space)
	hits, misses := eng.CacheStats()
	if misses != misses0 {
		t.Fatalf("warm sweep synthesized again: misses %d -> %d", misses0, misses)
	}
	if hits != int64(len(space)) {
		t.Fatalf("warm sweep: hits = %d, want %d", hits, len(space))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm sweep returned different points than cold sweep")
	}
}

// TestSweepDeterministic draws a seeded random subspace and sweeps it on
// two independent engines with different worker counts: for a fixed seed
// the sampled space and every point must be identical.
func TestSweepDeterministic(t *testing.T) {
	const seed = 99
	spaceA := explore.Sample(smallGrid(), 16, seed)
	spaceB := explore.Sample(smallGrid(), 16, seed)
	if !reflect.DeepEqual(spaceA, spaceB) {
		t.Fatal("Sample is not deterministic for a fixed seed")
	}
	a := (&explore.Engine{Workers: 8, SimTrials: 2}).Sweep(spaceA)
	b := (&explore.Engine{Workers: 3, SimTrials: 2}).Sweep(spaceB)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweeps diverge across engines/worker counts for the same space")
	}
}

// TestConcurrentDuplicateConfigs floods the pool with copies of the same
// configs: each unique config must synthesize exactly once, with every
// other lookup served by the cache, and all copies must agree.
func TestConcurrentDuplicateConfigs(t *testing.T) {
	base := smallGrid()[:4]
	var space []explore.Config
	for i := 0; i < 16; i++ {
		space = append(space, base...)
	}
	eng := &explore.Engine{Workers: 8}
	pts := eng.Sweep(space)
	hits, misses := eng.CacheStats()
	if misses != int64(len(base)) {
		t.Fatalf("misses = %d, want %d (one per unique config)", misses, len(base))
	}
	if hits != int64(len(space)-len(base)) {
		t.Fatalf("hits = %d, want %d", hits, len(space)-len(base))
	}
	for i, p := range pts {
		if !reflect.DeepEqual(p, pts[i%len(base)]) {
			t.Fatalf("copy %d diverges from first evaluation", i)
		}
	}
}

// TestCacheStatsCountsRemoteHits: CacheStats' hits and misses partition
// the point lookups, so a point the remote tier serves counts as a miss
// instead of vanishing from both.
func TestCacheStatsCountsRemoteHits(t *testing.T) {
	space := smallGrid()[:6]
	peer := &explore.Engine{}
	peer.Sweep(space)
	srv := httptest.NewServer(service.NewServer(service.NewQueue(peer, 1, 0)))
	defer srv.Close()

	eng := &explore.Engine{RemoteCache: srv.URL}
	eng.Sweep(space)
	eng.Sweep(space[:2])
	if st := eng.Stats(); st.PointRemoteHits != int64(len(space)) {
		t.Fatalf("PointRemoteHits = %d, want %d: %+v", st.PointRemoteHits, len(space), st)
	}
	hits, misses := eng.CacheStats()
	if hits != 2 || misses != int64(len(space)) {
		t.Fatalf("hits=%d misses=%d, want 2/%d", hits, misses, len(space))
	}
}

// TestFrontier checks the Pareto reduction and best-point queries on the
// real sweep: the microprocessor-block regime must put a 1-cycle point on
// the frontier, the classical baseline must win on area, and every
// frontier point must be undominated.
func TestFrontier(t *testing.T) {
	space := explore.Grid([]int{4}, explore.Variants(), []int{0}, true)
	pts := (&explore.Engine{Workers: 4, SimTrials: 1}).Sweep(space)
	front := explore.Frontier(pts)
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	best := explore.BestCycles(pts)
	if best == nil || best.Latency != 1 {
		t.Fatalf("best-cycle point = %+v, want 1-cycle design", best)
	}
	if best.Config.Preset != core.MicroprocessorBlock {
		t.Errorf("1-cycle design came from preset %v", best.Config.Preset)
	}
	smallest := explore.BestArea(pts)
	if smallest == nil {
		t.Fatal("no best-area point")
	}
	if smallest.Area > best.Area {
		t.Errorf("best-area %.1f exceeds best-cycle area %.1f", smallest.Area, best.Area)
	}
	for i, f := range front {
		if i > 0 && (front[i-1].Latency >= f.Latency || front[i-1].Area <= f.Area) {
			t.Errorf("frontier not strictly improving at %d: %+v then %+v", i, front[i-1], f)
		}
		for _, p := range pts {
			if p.Err == "" && p.Latency <= f.Latency && p.Area < f.Area {
				t.Errorf("frontier point %q dominated by %q", f.Config.String(), p.Config.String())
			}
		}
	}
}
