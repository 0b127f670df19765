package explore

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestSpaceConfigLowering pins the candidate → Config lowering: pass
// list assembly order, unroll-bound substitution, motion masking and the
// chaining switch.
func TestSpaceConfigLowering(t *testing.T) {
	sp := DefaultSpace(4)

	id := sp.identity()
	cfg := sp.config(id)
	want := []string{"inline", "drop-uncalled",
		"speculate", "unroll all full", "constprop", "cse",
		"constfold", "copyprop", "dce"}
	if !reflect.DeepEqual(cfg.Passes, want) {
		t.Fatalf("identity passes = %v, want %v", cfg.Passes, want)
	}
	if cfg.N != 4 || cfg.NoChaining {
		t.Fatalf("identity knobs: %+v", cfg)
	}

	c := id.clone()
	c.order = []int{2, 1, 0, 3} // constprop, unroll, speculate, cse
	c.mask[0] = false           // drop speculate
	c.unroll = 1                // bound 8
	c.chain = true
	cfg = sp.config(c)
	want = []string{"inline", "drop-uncalled",
		"constprop", "unroll all full 8", "cse",
		"constfold", "copyprop", "dce"}
	if !reflect.DeepEqual(cfg.Passes, want) {
		t.Fatalf("mutated passes = %v, want %v", cfg.Passes, want)
	}
	if cfg.N != 4 || !cfg.NoChaining {
		t.Fatalf("mutated knobs: %+v", cfg)
	}
}

// TestNeighborsPrefixBias pins the neighborhood contract: the chaining
// flip (identical pass list — a guaranteed frontend share) comes first,
// order mutations touch the deepest pass-list positions first, and the
// cheapest moves therefore all preserve the pass-list prefix.
func TestNeighborsPrefixBias(t *testing.T) {
	sp := DefaultSpace(4)
	id := sp.identity()
	base := sp.config(id)
	neigh := sp.neighbors(id)
	// chain flip + 1 unroll step + 3 swaps + 4 mask flips
	if len(neigh) != 9 {
		t.Fatalf("full neighborhood has %d moves, want 9", len(neigh))
	}

	first := sp.config(neigh[0])
	if !reflect.DeepEqual(first.Passes, base.Passes) || first.NoChaining == base.NoChaining {
		t.Fatalf("first neighbor is not the chaining flip: %q", first.String())
	}

	// First swap move: only the deepest two motions exchange.
	swap := sp.config(neigh[2])
	wantTail := []string{"speculate", "unroll all full", "cse", "constprop"}
	if got := swap.Passes[2:6]; !reflect.DeepEqual([]string(got), wantTail) {
		t.Fatalf("first swap mutates %v, want deepest pair -> %v", got, wantTail)
	}

	// The three cheapest moves keep the pass-list head through the
	// first motion.
	for _, n := range neigh[:3] {
		cfg := sp.config(n)
		if !strings.HasPrefix(strings.Join(cfg.Passes, ";"), "inline;drop-uncalled;speculate") {
			t.Fatalf("cheap move broke the shared prefix: %v", cfg.Passes)
		}
	}
}

// TestTailIndexBias checks the sampling form of the prefix bias: deep
// indices are drawn with probability proportional to position.
func TestTailIndexBias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, draws = 4, 4000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[tailIndex(rng, n)]++
	}
	if counts[n-1] <= counts[0]*2 {
		t.Fatalf("tail not favored: counts = %v", counts)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != draws {
		t.Fatalf("lost draws: %v", counts)
	}
}

// TestCrossoverPermutation: OX1 must always produce a valid permutation
// and inherit every scalar knob from one of the parents.
func TestCrossoverPermutation(t *testing.T) {
	sp := DefaultSpace(4)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a, b := sp.random(rng), sp.random(rng)
		child := crossover(a, b, rng)
		seen := make([]bool, len(child.order))
		for _, m := range child.order {
			if m < 0 || m >= len(seen) || seen[m] {
				t.Fatalf("trial %d: invalid permutation %v (parents %v, %v)",
					trial, child.order, a.order, b.order)
			}
			seen[m] = true
		}
		if child.unroll != a.unroll && child.unroll != b.unroll {
			t.Fatalf("trial %d: unroll %d from neither parent", trial, child.unroll)
		}
		if child.chain != a.chain && child.chain != b.chain {
			t.Fatalf("trial %d: chain from neither parent", trial)
		}
	}
}

// TestMutatePreservesValidity: every mutation move keeps the candidate
// inside the space.
func TestMutatePreservesValidity(t *testing.T) {
	sp := DefaultSpace(4)
	rng := rand.New(rand.NewSource(13))
	c := sp.identity()
	for i := 0; i < 500; i++ {
		sp.mutate(&c, rng)
		seen := make([]bool, len(c.order))
		for _, m := range c.order {
			if seen[m] {
				t.Fatalf("mutation %d broke the permutation: %v", i, c.order)
			}
			seen[m] = true
		}
		if c.unroll < 0 || c.unroll >= len(sp.UnrollBounds) {
			t.Fatalf("mutation %d pushed knobs out of range: %+v", i, c)
		}
	}
}
