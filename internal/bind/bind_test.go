package bind_test

import (
	"testing"

	"sparkgo/internal/bind"
	"sparkgo/internal/core"
	"sparkgo/internal/parser"
	"sparkgo/internal/sched"
)

func schedule(t *testing.T, src string, opt core.Options) *sched.Plan {
	t.Helper()
	p := parser.MustParse("d", src)
	res, err := core.Synthesize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule.Plan
}

func TestSingleCycleAllWires(t *testing.T) {
	s := schedule(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t1;
  uint8 t2;
  t1 = a + 1;
  t2 = t1 * 2;
  out = t2 - 3;
}
`, core.Options{})
	an := bind.Analyze(s)
	if len(an.Lifetimes) != 0 {
		t.Errorf("single-cycle design should have no local registers, got %d", len(an.Lifetimes))
	}
	if len(an.Wires) == 0 {
		t.Error("expected wire-variables")
	}
}

func TestMultiCycleLifetimesAndSharing(t *testing.T) {
	s := schedule(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t1;
  uint8 t2;
  uint8 t3;
  t1 = a + 1;
  t2 = t1 * 2;
  t3 = t2 * 3;
  out = t3 - 1;
}
`, core.Options{NoChaining: true})
	an := bind.Analyze(s)
	if len(an.Lifetimes) == 0 {
		t.Fatal("expected register lifetimes in a multi-cycle design")
	}
	for _, lt := range an.Lifetimes {
		if lt.Def > lt.Last {
			t.Errorf("inverted lifetime for %s: [%d,%d]", lt.Var.Name, lt.Def, lt.Last)
		}
	}
	sh := bind.LeftEdge(an)
	if sh.Registers() > len(an.Lifetimes) {
		t.Error("sharing increased register count")
	}
	// No two lifetimes in the same group may overlap.
	for gi, group := range sh.Groups {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if group[i].Overlaps(group[j]) {
					t.Errorf("group %d: %s and %s overlap",
						gi, group[i].Var.Name, group[j].Var.Name)
				}
			}
		}
	}
	// t1 dies when t2 is born (chained dependencies): left-edge should
	// share some storage among same-width temporaries.
	if sh.Registers() == len(an.Lifetimes) {
		t.Log("note: no sharing found (acceptable but unexpected for a chain)")
	}
}

func TestOverlapPredicate(t *testing.T) {
	a := bind.Lifetime{Def: 0, Last: 2}
	b := bind.Lifetime{Def: 2, Last: 4}
	c := bind.Lifetime{Def: 3, Last: 5}
	if !a.Overlaps(b) {
		t.Error("[0,2] and [2,4] overlap at 2")
	}
	if a.Overlaps(c) {
		t.Error("[0,2] and [3,5] do not overlap")
	}
}

func TestSummarizeReport(t *testing.T) {
	s := schedule(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t;
}
`, core.Options{})
	r := bind.Summarize(s)
	if r.WireVars == 0 && r.RegisterVars == 0 {
		t.Error("empty binding report")
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestLoopCarriedRegistersSpanLoop(t *testing.T) {
	s := schedule(t, `
uint8 data[4];
uint16 sum;
void main() {
  uint8 i;
  for (i = 0; i < 4; i++) {
    sum += data[i];
  }
}
`, core.Options{Preset: core.ClassicalASIC})
	an := bind.Analyze(s)
	// The loop index must be a register with a lifetime spanning the
	// re-entrant region.
	found := false
	for _, lt := range an.Lifetimes {
		if lt.Var.Name == "i" {
			found = true
			if lt.Last <= lt.Def {
				t.Errorf("loop index lifetime [%d,%d] does not span the loop", lt.Def, lt.Last)
			}
		}
	}
	if !found {
		t.Error("loop index not register-allocated")
	}
}
