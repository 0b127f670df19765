package explore

import (
	"fmt"
	"math/rand"
	"strings"

	"sparkgo/internal/core"
)

// Space is the neighborhood definition of an adaptive search: the axes a
// strategy may mutate and the fixed scaffolding around them. A candidate
// drawn from the space is a pass ordering over Motions (with per-motion
// enable toggles, the explicit-pass-list form of the A1–A4 knockouts),
// an unroll-bound choice and a chaining switch — the explicit-pass-list
// rendering of the grid axes Grid sweeps exhaustively. The scale is
// Base.N: objectives compare designs of one program.
type Space struct {
	// Base is the config template: source selection, preset, and every
	// field the search does not mutate are taken from it verbatim.
	Base Config
	// Prologue and Epilogue are fixed pass segments wrapped around the
	// permutable middle. Keeping them fixed is what makes neighbor moves
	// cheap: candidates agree on the list head, and backend-knob moves
	// agree on the whole list.
	Prologue []string
	Epilogue []string
	// Motions is the permutable pass segment — the ordering axis.
	Motions []string
	// UnrollBounds are the candidate bounds substituted into the
	// "unroll all full" motion (0 = unbounded). Empty leaves motion
	// specs untouched.
	UnrollBounds []int
}

// DefaultSpace is the paper's search space at scale n: the coordinated
// motion passes (speculation, full unrolling, constant propagation, CSE)
// permutable and droppable between the fixed inline prologue and cleanup
// epilogue, over both unroll bounds and the chaining switch.
func DefaultSpace(n int) Space {
	return Space{
		Base:         Config{N: n, Preset: core.MicroprocessorBlock},
		Prologue:     []string{"inline", "drop-uncalled"},
		Motions:      []string{"speculate", "unroll all full", "constprop", "cse"},
		Epilogue:     []string{"constfold", "copyprop", "dce"},
		UnrollBounds: []int{0, 8},
	}
}

// candidate is one point of a Space, in genome form: a permutation over
// Motions, a per-motion enable mask, knob indices, and the chaining
// switch. Strategies mutate candidates; Space.config lowers one to the
// Config the engine evaluates.
type candidate struct {
	order  []int  // permutation of Motions indices, execution order
	mask   []bool // mask[i]: motion i enabled
	unroll int    // index into UnrollBounds (0 when empty)
	chain  bool   // Config.NoChaining
}

func (c candidate) clone() candidate {
	d := c
	d.order = append([]int(nil), c.order...)
	d.mask = append([]bool(nil), c.mask...)
	return d
}

// identity is the search's deterministic starting candidate: motions in
// declaration order, everything enabled, first knob values, chaining as
// the base config has it. For DefaultSpace this is exactly the paper's
// coordinated plan.
func (sp *Space) identity() candidate {
	c := candidate{
		order: make([]int, len(sp.Motions)),
		mask:  make([]bool, len(sp.Motions)),
		chain: sp.Base.NoChaining,
	}
	for i := range c.order {
		c.order[i] = i
		c.mask[i] = true
	}
	return c
}

// random draws a uniform candidate — the restart/population seed.
func (sp *Space) random(rng *rand.Rand) candidate {
	c := sp.identity()
	copy(c.order, rng.Perm(len(sp.Motions)))
	for i := range c.mask {
		c.mask[i] = rng.Intn(4) != 0 // bias toward keeping motions on
	}
	if len(sp.UnrollBounds) > 0 {
		c.unroll = rng.Intn(len(sp.UnrollBounds))
	}
	c.chain = rng.Intn(2) == 0
	return c
}

// config lowers a candidate to the engine's Config: prologue, the
// enabled motions in candidate order (with the unroll bound substituted
// into the unroll motion), epilogue.
func (sp *Space) config(c candidate) Config {
	cfg := sp.Base
	passes := append([]string(nil), sp.Prologue...)
	for _, i := range c.order {
		if !c.mask[i] {
			continue
		}
		passes = append(passes, sp.motionSpec(i, c))
	}
	passes = append(passes, sp.Epilogue...)
	cfg.Passes = passes
	cfg.NoChaining = c.chain
	return cfg
}

// motionSpec renders motion i under the candidate's knobs: the unroll
// motion carries the selected bound as its spec argument.
func (sp *Space) motionSpec(i int, c candidate) string {
	spec := sp.Motions[i]
	if len(sp.UnrollBounds) > 0 && strings.HasPrefix(spec, "unroll") {
		if b := sp.UnrollBounds[c.unroll]; b > 0 {
			spec = fmt.Sprintf("%s %d", spec, b)
		}
	}
	return spec
}

// neighbors enumerates the candidate's neighborhood, cheapest and most
// prefix-preserving moves first:
//
//  1. the chaining flip — identical pass list, so it is served from the
//     incumbent's frontend artifact (a frontend mem-hit by construction);
//  2. unroll-bound steps (±1 on the knob index);
//  3. adjacent swaps in the motion order, deepest pair first;
//  4. motion enable flips, deepest execution position first.
//
// The tail-first ordering is the prefix bias the stage cache wants: the
// first moves mutate only the deepest pass-list positions, so candidate
// lists share long prefixes with the incumbent — and converge back onto
// already-evaluated full lists (point or frontend cache hits) far more
// often than head mutations would.
func (sp *Space) neighbors(c candidate) []candidate {
	flip := c.clone()
	flip.chain = !flip.chain
	out := []candidate{flip}
	add := func(n candidate) { out = append(out, n) }
	for _, step := range []int{1, -1} {
		if u := c.unroll + step; u >= 0 && u < len(sp.UnrollBounds) {
			n := c.clone()
			n.unroll = u
			add(n)
		}
	}
	for i := len(c.order) - 2; i >= 0; i-- {
		n := c.clone()
		n.order[i], n.order[i+1] = n.order[i+1], n.order[i]
		add(n)
	}
	for i := len(c.order) - 1; i >= 0; i-- {
		n := c.clone()
		n.mask[c.order[i]] = !n.mask[c.order[i]]
		add(n)
	}
	return out
}

// OrderGrid enumerates the exhaustive grid over the space's ordering ×
// unroll-bound × chaining axes with every motion enabled — the ground
// truth an adaptive search is judged against (experiment E17). Grid
// configs go through the same candidate lowering the strategies use
// (Space.config), so the baseline and the search can never drift onto
// different renderings of the same space. The knockout axis stays at
// its identity value.
func (sp Space) OrderGrid() []Config {
	unrolls := len(sp.UnrollBounds)
	if unrolls == 0 {
		unrolls = 1
	}
	var grid []Config
	for _, ord := range permutations(len(sp.Motions)) {
		for u := 0; u < unrolls; u++ {
			for _, ch := range []bool{false, true} {
				c := sp.identity()
				copy(c.order, ord)
				c.unroll = u
				c.chain = ch
				grid = append(grid, sp.config(c))
			}
		}
	}
	return grid
}

// permutations enumerates every ordering of [0, n) in lexicographic
// order (n = 0 yields the single empty ordering).
func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := [][]int{append([]int(nil), idx...)}
	for {
		i := n - 2
		for i >= 0 && idx[i] >= idx[i+1] {
			i--
		}
		if i < 0 {
			return out
		}
		j := n - 1
		for idx[j] <= idx[i] {
			j--
		}
		idx[i], idx[j] = idx[j], idx[i]
		for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
			idx[l], idx[r] = idx[r], idx[l]
		}
		out = append(out, append([]int(nil), idx...))
	}
}

// tailIndex draws an index in [0, n) with probability proportional to
// i+1 — the sampling form of the prefix bias, used by the genetic
// strategy's point mutations: deep (late) positions mutate often, the
// list head rarely.
func tailIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	r := rng.Intn(n * (n + 1) / 2)
	for i := 0; i < n; i++ {
		r -= i + 1
		if r < 0 {
			return i
		}
	}
	return n - 1
}

// mutate applies one random prefix-biased move in place — the genetic
// strategy's per-knob mutation operator. Move weights favor the cheap
// backend knob and deep-position order changes.
func (sp *Space) mutate(c *candidate, rng *rand.Rand) {
	type move func()
	moves := []move{func() { c.chain = !c.chain }}
	if len(sp.UnrollBounds) > 1 {
		moves = append(moves, func() { c.unroll = rng.Intn(len(sp.UnrollBounds)) })
	}
	if len(c.order) > 1 {
		moves = append(moves, func() {
			i := tailIndex(rng, len(c.order)-1)
			c.order[i], c.order[i+1] = c.order[i+1], c.order[i]
		})
	}
	if len(c.mask) > 0 {
		moves = append(moves, func() {
			i := c.order[tailIndex(rng, len(c.order))]
			c.mask[i] = !c.mask[i]
		})
	}
	moves[rng.Intn(len(moves))]()
}
