package dfa_test

import (
	"slices"
	"testing"
	"unsafe"

	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/transform"
)

func lower(t *testing.T, src string) *htg.Graph {
	t.Helper()
	p := parser.MustParse("t", src)
	if _, err := transform.Inline(nil).Run(p); err != nil {
		t.Fatal(err)
	}
	g, err := htg.Lower(p, p.Main())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func findOp(g *htg.Graph, pred func(*htg.Op) bool) *htg.Op {
	for _, op := range g.AllOps() {
		if pred(op) {
			return op
		}
	}
	return nil
}

func hasEdge(d *dfa.Graph, from, to *htg.Op, kind dfa.EdgeKind) bool {
	for _, e := range d.Preds[to.ID] {
		if int(e.From) == from.ID && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestFlowDependence(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t * 2;
}
`)
	d := dfa.Build(g.AllOps())
	def := findOp(g, func(op *htg.Op) bool { return op.Writes() != nil && op.Writes().Name == "t" })
	use := findOp(g, func(op *htg.Op) bool {
		for _, v := range op.Reads() {
			if v.Name == "t" {
				return true
			}
		}
		return false
	})
	if def == nil || use == nil {
		t.Fatal("ops not found")
	}
	if !hasEdge(d, def, use, dfa.Flow) {
		t.Error("missing flow edge def(t) -> use(t)")
	}
}

func TestAntiAndOutputDependence(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t;
  t = a + 2;
}
`)
	d := dfa.Build(g.AllOps())
	var defs []*htg.Op
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil && w.Name == "t" {
			defs = append(defs, op)
		}
	}
	if len(defs) != 2 {
		t.Fatalf("defs of t = %d, want 2", len(defs))
	}
	use := findOp(g, func(op *htg.Op) bool { return op.Writes() != nil && op.Writes().Name == "out" })
	if !hasEdge(d, defs[0], defs[1], dfa.Output) {
		t.Error("missing output edge between the two defs of t")
	}
	if !hasEdge(d, use, defs[1], dfa.Anti) {
		t.Error("missing anti edge use(t) -> redef(t)")
	}
}

func TestGuardDependenceAndGuardRead(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  bool c;
  c = a > 1;
  if (c) {
    out = 5;
  }
  c = a > 2;
}
`)
	d := dfa.Build(g.AllOps())
	guarded := findOp(g, func(op *htg.Op) bool { return len(op.BB.Guard) > 0 })
	if guarded == nil {
		t.Fatal("no guarded op")
	}
	var condDefs []*htg.Op
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil && w.Name == "c" {
			condDefs = append(condDefs, op)
		}
	}
	if len(condDefs) != 2 {
		t.Fatalf("defs of c = %d, want 2", len(condDefs))
	}
	if !hasEdge(d, condDefs[0], guarded, dfa.Guard) {
		t.Error("missing guard edge cond-def -> guarded op")
	}
	// The guarded op READS c: the later redefinition of c must be
	// anti-ordered after it (the stale-guard hazard).
	if !hasEdge(d, guarded, condDefs[1], dfa.Anti) {
		t.Error("missing anti edge guarded-op -> cond redefinition")
	}
}

func TestConstIndexDisambiguation(t *testing.T) {
	g := lower(t, `
uint8 arr[4];
void main() {
  arr[0] = 1;
  arr[1] = 2;
  arr[1] = 3;
}
`)
	d := dfa.Build(g.AllOps())
	var stores []*htg.Op
	for _, op := range g.AllOps() {
		if op.Kind == htg.OpStore {
			stores = append(stores, op)
		}
	}
	if len(stores) != 3 {
		t.Fatalf("stores = %d", len(stores))
	}
	if hasEdge(d, stores[0], stores[1], dfa.Output) {
		t.Error("distinct constant indices should not be ordered")
	}
	// Two stores to the same constant index must keep program order.
	if !hasEdge(d, stores[1], stores[2], dfa.Output) {
		t.Error("stores to the same constant index must be ordered")
	}
}

func TestDynamicIndexConservative(t *testing.T) {
	g := lower(t, `
uint8 arr[4];
uint8 i;
uint8 out;
void main() {
  arr[i] = 1;
  out = arr[2];
}
`)
	d := dfa.Build(g.AllOps())
	store := findOp(g, func(op *htg.Op) bool { return op.Kind == htg.OpStore })
	load := findOp(g, func(op *htg.Op) bool { return op.Kind == htg.OpLoad && op.Arr.Name == "arr" })
	if !hasEdge(d, store, load, dfa.Flow) {
		t.Error("dynamic store must order before a later load")
	}
}

func TestExclusiveBranchesUnordered(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 x;
void main() {
  if (a > 1) {
    x = 1;
  } else {
    x = 2;
  }
}
`)
	d := dfa.Build(g.AllOps())
	var defs []*htg.Op
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil && w.Name == "x" && op.Kind == htg.OpCopy {
			defs = append(defs, op)
		}
	}
	if len(defs) != 2 {
		t.Fatalf("defs = %d", len(defs))
	}
	if hasEdge(d, defs[0], defs[1], dfa.Output) {
		t.Error("mutually exclusive writes should not be ordered")
	}
}

func TestCriticalPathLength(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t1;
  uint8 t2;
  t1 = a + 1;
  t2 = t1 + 2;
  out = t2 + 3;
}
`)
	d := dfa.Build(g.AllOps())
	if depth := d.CriticalPathLength(); depth < 3 {
		t.Errorf("dataflow depth = %d, want >= 3", depth)
	}
}

func TestEdgesPointForward(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 arr[4];
uint8 out;
void main() {
  uint8 t;
  if (a > 1) {
    arr[a & 3] = a;
    t = arr[0];
  }
  out = t + arr[1];
}
`)
	d := dfa.Build(g.AllOps())
	for _, op := range d.Ops {
		for _, e := range d.Preds[op.ID] {
			if int(e.From) >= op.ID {
				t.Errorf("edge not forward in program order: #%d -> #%d (%v)",
					e.From, op.ID, e.Kind)
			}
		}
	}
}

// TestEdgeVar checks Graph.Var against each edge kind's definition: the
// storage a flow or guard edge carries is the predecessor's write and is
// read by the successor (as a guard condition, for Guard), and an anti or
// output edge orders a write of the successor after the predecessor's
// read or write of the same storage.
func TestEdgeVar(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 b;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  if (t > 2) {
    out = t;
  }
  t = b;
  if (t > 3) {
    out = t + 1;
  }
}
`)
	d := dfa.Build(g.AllOps())
	reads := func(op *htg.Op, v *ir.Var) bool {
		if slices.Contains(op.Reads(), v) {
			return true
		}
		for _, gt := range op.BB.Guard {
			if gt.Cond == v {
				return true
			}
		}
		return false
	}
	seen := map[dfa.EdgeKind]bool{}
	for _, to := range d.Ops {
		for _, e := range d.Preds[to.ID] {
			from, v := d.ByID[e.From], d.Var(to, e)
			seen[e.Kind] = true
			ok := false
			switch e.Kind {
			case dfa.Flow, dfa.Guard:
				ok = v == from.Writes() && reads(to, v)
			case dfa.Anti:
				ok = v == to.Writes() && reads(from, v)
			case dfa.Output:
				ok = v == to.Writes() && v == from.Writes()
			}
			if v == nil || !ok {
				t.Errorf("%v edge %s -> %s: Var = %v", e.Kind, from, to, v)
			}
		}
	}
	for _, k := range []dfa.EdgeKind{dfa.Flow, dfa.Anti, dfa.Output, dfa.Guard} {
		if !seen[k] {
			t.Errorf("no %v edge in the test program", k)
		}
	}
	// Large graphs hold over 100,000 edges; the midend's peak memory
	// depends on an edge staying two words of four bytes.
	if size := unsafe.Sizeof(dfa.Edge{}); size != 8 {
		t.Errorf("dfa.Edge takes %d bytes, want 8", size)
	}
}
