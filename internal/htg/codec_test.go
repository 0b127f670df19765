package htg

import (
	"testing"

	"sparkgo/internal/parser"
)

// TestDecodeGraphRejectsForgedOpIDs forges graphs whose op IDs are not
// exactly 0..nextOp-1. Each must fail to decode: the midend sizes its
// tables by nextOp and indexes them by op ID.
func TestDecodeGraphRejectsForgedOpIDs(t *testing.T) {
	lowered := func() *Graph {
		p := parser.MustParse("t", `
uint8 a;
uint8 out;
void main() {
  if (a > 3) {
    out = a + 1;
  }
  out = out * 2;
}
`)
		g, err := Lower(p, p.Main())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := lowered()
	if g.OpCount() < 3 {
		t.Fatalf("want at least 3 ops, have %d", g.OpCount())
	}
	enc, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGraph(enc); err != nil {
		t.Fatalf("genuine graph: %v", err)
	}

	forgeries := map[string]func(g *Graph, ops []*Op){
		"negative ID":      func(g *Graph, ops []*Op) { ops[0].ID = -1 },
		"ID at next op":    func(g *Graph, ops []*Op) { ops[0].ID = g.nextOp },
		"ID past next op":  func(g *Graph, ops []*Op) { ops[0].ID = 1 << 40 },
		"repeated ID":      func(g *Graph, ops []*Op) { ops[1].ID = ops[0].ID },
		"next op too high": func(g *Graph, ops []*Op) { g.nextOp++ },
		"next op too low":  func(g *Graph, ops []*Op) { g.nextOp-- },
		"next op huge":     func(g *Graph, ops []*Op) { g.nextOp = 1 << 40 },
		"next op negative": func(g *Graph, ops []*Op) { g.nextOp = -1 },
	}
	for name, forge := range forgeries {
		g := lowered()
		forge(g, g.AllOps())
		enc, err := EncodeGraph(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := DecodeGraph(enc); err == nil {
			t.Errorf("%s: forged graph decoded", name)
		}
	}
}
