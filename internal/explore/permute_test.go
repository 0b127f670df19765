package explore_test

import (
	"reflect"
	"strings"
	"testing"

	"sparkgo/internal/explore"
)

func TestPermutePasses(t *testing.T) {
	specs := []string{"a", "b", "c"}
	all := explore.PermutePasses(specs)
	if len(all) != 6 {
		t.Fatalf("got %d permutations of 3 specs, want 6", len(all))
	}
	if !reflect.DeepEqual(all[0], specs) {
		t.Fatalf("first permutation %v is not the identity ordering", all[0])
	}
	seen := map[string]bool{}
	for _, p := range all {
		seen[strings.Join(p, ",")] = true
	}
	if len(seen) != 6 {
		t.Fatalf("permutations not distinct: %v", all)
	}
	// Deterministic across calls.
	if !reflect.DeepEqual(all, explore.PermutePasses(specs)) {
		t.Fatal("PermutePasses is not deterministic")
	}
	// Duplicate specs de-duplicate.
	dup := explore.PermutePasses([]string{"x", "x", "y"})
	if len(dup) != 3 {
		t.Fatalf("got %d distinct orderings of [x x y], want 3", len(dup))
	}
	// Returned slices must not alias each other's backing arrays.
	all[0][0] = "mutated"
	if all[1][0] == "mutated" {
		t.Fatal("permutations share backing storage")
	}
}

func TestPassOrderGrid(t *testing.T) {
	orders := explore.PermutePasses([]string{"inline", "dce"})
	space := explore.PassOrderGrid(4, orders)
	if len(space) != len(orders) {
		t.Fatalf("got %d configs, want %d", len(space), len(orders))
	}
	seen := map[uint64]string{}
	for i, c := range space {
		if !reflect.DeepEqual(c.Passes, orders[i]) {
			t.Fatalf("config %d passes %v, want %v", i, c.Passes, orders[i])
		}
		if prev, dup := seen[c.Key()]; dup {
			t.Fatalf("duplicate key for %q and %q", prev, c.String())
		}
		seen[c.Key()] = c.String()
	}
}
