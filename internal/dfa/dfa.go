// Package dfa builds the data-dependence graph over HTG operations that
// drives scheduling: flow (read-after-write), anti (write-after-read),
// output (write-after-write), and guard (control value needed for
// conditional commit) dependences.
//
// Two refinements from the paper's domain are applied:
//
//   - mutual exclusion: operations in basic blocks that can never execute
//     together (contradictory path guards) need no anti/output ordering
//     (§2: mutually exclusive operations may even share a resource);
//   - constant-index array disambiguation: accesses to statically distinct
//     elements of the same array are independent, which is what makes the
//     fully-unrolled ILD's Mark[1], Mark[2], ... stores parallel.
package dfa

import (
	"slices"

	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// EdgeKind classifies dependence edges.
type EdgeKind int

const (
	// Flow: the successor reads a value the predecessor writes.
	Flow EdgeKind = iota
	// Anti: the successor overwrites a value the predecessor reads.
	Anti
	// Output: both write the same storage; program order must hold.
	Output
	// Guard: the successor commits under a condition the predecessor
	// computes.
	Guard
)

func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Guard:
		return "guard"
	}
	return "?"
}

// Edge is one dependence: From must complete before (or chain into) To.
type Edge struct {
	From, To *htg.Op
	Kind     EdgeKind
	// Var is the storage mediating the dependence (condition var for
	// Guard edges).
	Var *ir.Var
}

// Graph is the dependence graph over a set of operations in program order.
type Graph struct {
	Ops   []*htg.Op
	Succs map[*htg.Op][]Edge
	Preds map[*htg.Op][]Edge
}

// Build constructs the dependence graph for ops (which must be in program
// order, as produced by Graph.AllOps or BasicBlock.Ops), applying both
// refinements.
func Build(ops []*htg.Op) *Graph {
	g := &Graph{Ops: ops, Preds: map[*htg.Op][]Edge{}}

	// Every edge ends at the op being scanned, so in collects that op's
	// predecessors, which are stored exact-size once its scan ends. Large
	// graphs are the midend's peak memory, and lists grown by append
	// would leave up to half of it unused.
	var in []Edge
	addEdge := func(from, to *htg.Op, kind EdgeKind, v *ir.Var) {
		if from == to {
			return
		}
		for _, e := range in {
			if e.From == from && e.Kind == kind {
				return
			}
		}
		in = append(in, Edge{From: from, To: to, Kind: kind, Var: v})
	}

	// Per-variable def/use bookkeeping, scanning in program order.
	// Each lastDefs list is duplicate-free: a write keeps a subsequence
	// of the old list and appends itself, and each op is scanned once.
	lastDefs := map[*ir.Var][]*htg.Op{} // defs not yet killed (guarded defs accumulate)
	lastReads := map[*ir.Var][]*htg.Op{}

	// distinctConstElems reports whether two array ops provably touch
	// different elements.
	distinctConstElems := func(a, b *htg.Op) bool {
		ia, ib := a.Args[0], b.Args[0]
		return ia.IsConst && ib.IsConst && ia.Const != ib.Const
	}

	for _, op := range ops {
		// Guard dependences: the op needs its path conditions — and it
		// READS them, so later writers of a condition variable must be
		// anti-ordered after this op (a stale guard would otherwise
		// commit the wrong branch when scheduling spreads the ops over
		// several cycles).
		for _, gt := range op.BB.Guard {
			for _, d := range lastDefs[gt.Cond] {
				addEdge(d, op, Guard, gt.Cond)
			}
			lastReads[gt.Cond] = append(lastReads[gt.Cond], op)
		}
		// Flow dependences on reads.
		for _, v := range op.Reads() {
			for _, d := range lastDefs[v] {
				if v.Type.IsArray() && d.Kind == htg.OpStore && op.Kind == htg.OpLoad &&
					distinctConstElems(d, op) {
					continue
				}
				if v.Type.IsArray() && htg.MutuallyExclusive(d.BB, op.BB) {
					// A store in an exclusive branch can't feed
					// this load.
					continue
				}
				addEdge(d, op, Flow, v)
			}
			lastReads[v] = append(lastReads[v], op)
		}
		// Anti/output dependences on the write.
		if w := op.Writes(); w != nil {
			for _, r := range lastReads[w] {
				if r == op {
					continue
				}
				if htg.MutuallyExclusive(r.BB, op.BB) {
					continue
				}
				if w.Type.IsArray() && r.Kind == htg.OpLoad && op.Kind == htg.OpStore &&
					distinctConstElems(r, op) {
					continue
				}
				addEdge(r, op, Anti, w)
			}
			var kept []*htg.Op
			for _, d := range lastDefs[w] {
				if htg.MutuallyExclusive(d.BB, op.BB) {
					// Both writes can't happen in one run: no
					// ordering needed, and the old def still
					// reaches later readers on its own paths.
					kept = append(kept, d)
					continue
				}
				if w.Type.IsArray() && d.Kind == htg.OpStore && op.Kind == htg.OpStore &&
					distinctConstElems(d, op) {
					kept = append(kept, d)
					continue
				}
				addEdge(d, op, Output, w)
				// A killed def stops reaching later readers only
				// when the new write covers it: scalar writes whose
				// guard set is implied by the old def's guards.
				if !w.Type.IsArray() && guardsCover(d.BB.Guard, op.BB.Guard) {
					continue // killed
				}
				kept = append(kept, d)
			}
			// Element stores never kill the whole array: readers at
			// other indices still need older stores.
			if !w.Type.IsArray() && len(op.BB.Guard) == 0 {
				lastDefs[w] = []*htg.Op{op} // unconditional def kills all
				lastReads[w] = nil
			} else {
				lastDefs[w] = append(kept, op)
			}
		}
		if len(in) > 0 {
			g.Preds[op] = slices.Clone(in)
			in = in[:0]
		}
	}
	// Fill each successor list, sized first, in the order the edges were
	// found.
	succs := map[*htg.Op]int{}
	for _, op := range ops {
		for _, e := range g.Preds[op] {
			succs[e.From]++
		}
	}
	g.Succs = make(map[*htg.Op][]Edge, len(succs))
	for from, n := range succs {
		g.Succs[from] = make([]Edge, 0, n)
	}
	for _, op := range ops {
		for _, e := range g.Preds[op] {
			g.Succs[e.From] = append(g.Succs[e.From], e)
		}
	}
	return g
}

// guardsCover reports whether guard set a implies b (b is a prefix of a:
// every term of b appears in a). An op whose guard is implied by a later
// op's guard is killed by it.
func guardsCover(a, b []htg.GuardTerm) bool {
	for _, tb := range b {
		found := false
		for _, ta := range a {
			if ta.Cond == tb.Cond && ta.Value == tb.Value {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// CriticalPathLength returns the maximum number of flow edges on any path
// (the dataflow depth: paper Fig 3b's "two levels").
func (g *Graph) CriticalPathLength() int {
	depth := map[*htg.Op]int{}
	max := 0
	for _, op := range g.Ops { // program order = topological
		d := 0
		for _, e := range g.Preds[op] {
			if e.Kind == Flow || e.Kind == Guard {
				if depth[e.From]+1 > d {
					d = depth[e.From] + 1
				}
			}
		}
		depth[op] = d
		if d > max {
			max = d
		}
	}
	return max + 1
}
