package dfa_test

import (
	"testing"

	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
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
		if e.From == from && e.Kind == kind {
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
			if e.From.ID >= e.To.ID {
				t.Errorf("edge not forward in program order: #%d -> #%d (%v)",
					e.From.ID, e.To.ID, e.Kind)
			}
		}
	}
}
