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
type EdgeKind uint8

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

// Edge is one dependence into the op whose Preds list holds it: the op
// with ID From must complete before (or chain into) that op. Large
// graphs hold over 100,000 edges and are the midend's peak memory, so an
// edge takes 8 bytes: the successor is implied by the list, the
// predecessor is stored as an ID, and the storage mediating the
// dependence is read off the ops (Graph.Var).
type Edge struct {
	From int32
	Kind EdgeKind
}

// Graph is the dependence graph over a set of operations in program order.
// Preds, Succs and ByID are indexed by op ID: Preds[id] lists the edges
// into op id in the order Build found them, and Succs[id] the ID of the
// successor at the end of each edge out of it, in the same order: each
// edge is stored once, and a successor joined by edges of several kinds
// is listed once per edge. ByID[id] is the op with that ID. All three
// have one entry per ID up to the largest in Ops; an ID with no op has
// empty lists and a nil op.
type Graph struct {
	Ops   []*htg.Op
	ByID  []*htg.Op
	Succs [][]int32
	Preds [][]Edge
}

// Build constructs the dependence graph for ops (which must be in program
// order, as produced by Graph.AllOps or BasicBlock.Ops), applying both
// refinements. Op IDs must be distinct and non-negative; the graph's
// tables are as long as the largest ID plus one.
func Build(ops []*htg.Op) *Graph {
	n := 0
	for _, op := range ops {
		n = max(n, op.ID+1)
	}
	g := &Graph{Ops: ops, ByID: make([]*htg.Op, n), Preds: make([][]Edge, n)}

	// Every edge ends at the op being scanned, so in collects that op's
	// predecessors, which are stored exact-size once its scan ends. Large
	// graphs are the midend's peak memory, and lists grown by append
	// would leave up to half of it unused. stamp[k][from.ID] is to.ID+1
	// once from has an edge of kind k into to; each op is scanned once,
	// so that is the whole dedup. outDeg sizes the successor lists.
	var in []Edge
	var stamp [Guard + 1][]int
	for k := range stamp {
		stamp[k] = make([]int, n)
	}
	outDeg, edges := make([]int, n), 0
	addEdge := func(from, to *htg.Op, kind EdgeKind) {
		if from == to || stamp[kind][from.ID] == to.ID+1 {
			return
		}
		stamp[kind][from.ID] = to.ID + 1
		outDeg[from.ID]++
		in = append(in, Edge{From: int32(from.ID), Kind: kind})
	}

	// Per-variable def/use bookkeeping, scanning in program order.
	// Each lastDefs list is duplicate-free: a write keeps a subsequence
	// of the old list and appends itself, and each op is scanned once.
	// Both tables own their lists, so a write reuses them in place.
	lastDefs := map[*ir.Var][]*htg.Op{} // defs not yet killed (guarded defs accumulate)
	lastReads := map[*ir.Var][]*htg.Op{}

	// distinctConstElems reports whether two array ops provably touch
	// different elements.
	distinctConstElems := func(a, b *htg.Op) bool {
		ia, ib := a.Args[0], b.Args[0]
		return ia.IsConst && ib.IsConst && ia.Const != ib.Const
	}

	for _, op := range ops {
		g.ByID[op.ID] = op
		// Guard dependences: the op needs its path conditions — and it
		// READS them, so later writers of a condition variable must be
		// anti-ordered after this op (a stale guard would otherwise
		// commit the wrong branch when scheduling spreads the ops over
		// several cycles).
		for _, gt := range op.BB.Guard {
			for _, d := range lastDefs[gt.Cond] {
				addEdge(d, op, Guard)
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
				addEdge(d, op, Flow)
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
				addEdge(r, op, Anti)
			}
			// kept reuses defs' array: it is written only behind
			// the loop's read position.
			defs := lastDefs[w]
			kept := defs[:0]
			for _, d := range defs {
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
				addEdge(d, op, Output)
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
				lastDefs[w] = append(defs[:0], op) // unconditional def kills all
				if reads, ok := lastReads[w]; ok {
					lastReads[w] = reads[:0]
				}
			} else {
				lastDefs[w] = append(kept, op)
			}
		}
		if len(in) > 0 {
			g.Preds[op.ID] = slices.Clone(in)
			edges += len(in)
			in = in[:0]
		}
	}
	// Fill each successor list in the order the edges were found. The
	// lists share one backing array.
	all := make([]int32, edges)
	g.Succs = make([][]int32, n)
	for id, k := range outDeg {
		g.Succs[id], all = all[:0:k], all[k:]
	}
	for _, op := range ops {
		for _, e := range g.Preds[op.ID] {
			g.Succs[e.From] = append(g.Succs[e.From], int32(op.ID))
		}
	}
	return g
}

// Var returns the storage mediating edge e into op to: the variable the
// predecessor writes for Flow and Guard edges (the condition, for
// Guard), and the one to overwrites for Anti and Output edges.
func (g *Graph) Var(to *htg.Op, e Edge) *ir.Var {
	if e.Kind == Anti || e.Kind == Output {
		return to.Writes()
	}
	return g.ByID[e.From].Writes()
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
	depth := make([]int, len(g.Preds))
	longest := 0
	for _, op := range g.Ops { // program order = topological
		d := 0
		for _, e := range g.Preds[op.ID] {
			if e.Kind == Flow || e.Kind == Guard {
				d = max(d, depth[e.From]+1)
			}
		}
		depth[op.ID] = d
		longest = max(longest, d)
	}
	return longest + 1
}
