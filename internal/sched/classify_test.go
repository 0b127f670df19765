package sched

import (
	"slices"
	"testing"

	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
)

// TestClassifyVars pins each register/wire rule of classifyVars on a
// hand-placed plan: one small program per rule, with its ops put in
// chosen states.
func TestClassifyVars(t *testing.T) {
	const straight = `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t * 2;
}`
	// Ops: op_1 = a > 3; t = a + 1 (guarded); out = t.
	const guarded = `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  if (a > 3) {
    t = a + 1;
  }
  out = t;
}`
	cases := []struct {
		name string
		src  string
		// states[i] is the state of the op with ID i; the plan has
		// numStates states, or as many as states uses.
		states    []int
		numStates int
		reentrant []int
		// transitions lists the From state of a transition on the
		// condition variable op_1.
		transitions []int
		want        map[string]VarClass
	}{
		{name: "def and reads in one state", src: straight, states: []int{0, 0},
			want: map[string]VarClass{"t": Wire}},
		{name: "read in another state", src: straight, states: []int{0, 1},
			want: map[string]VarClass{"t": Register}},
		{name: "read before the first def in its state", src: `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  out = t;
  t = a + 1;
}`, states: []int{0, 0},
			want: map[string]VarClass{"t": Register}},
		{name: "defs in two states", src: `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t;
  t = a + 2;
}`, states: []int{0, 0, 1},
			want: map[string]VarClass{"t": Register}},
		{name: "guarded def in a plain state", src: guarded, states: []int{0, 0, 0},
			want: map[string]VarClass{"t": Wire, "op_1": Wire}},
		{name: "guarded def in a re-entrant state", src: guarded, states: []int{0, 0, 0},
			reentrant: []int{0},
			want:      map[string]VarClass{"t": Register}},
		{name: "transition condition read in its def state", src: guarded,
			states: []int{0, 0, 0}, transitions: []int{0},
			want: map[string]VarClass{"op_1": Wire}},
		{name: "transition condition read from another state", src: guarded,
			states: []int{0, 0, 0}, numStates: 2, transitions: []int{1},
			want: map[string]VarClass{"op_1": Register}},
		{name: "never-written local", src: `
uint8 out;
void main() {
  uint8 t;
  out = t;
}`, states: []int{0},
			want: map[string]VarClass{"t": Wire}},
		{name: "global and return variable", src: `
uint8 a;
uint8 f(uint8 x) {
  return x + a;
}`, states: []int{0},
			want: map[string]VarClass{"a": Register, "ret_1": Register, "x": Wire}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := parser.MustParse("t", c.src)
			g, err := htg.Lower(p, p.Main())
			if err != nil {
				t.Fatal(err)
			}
			ops := g.AllOps()
			if len(ops) != len(c.states) {
				t.Fatalf("%d ops, placement for %d", len(ops), len(c.states))
			}
			plan := &Plan{G: g, VarClass: map[*ir.Var]VarClass{}, ReentrantStates: map[int]bool{}}
			plan.OpOrder = make([][]*htg.Op, max(c.numStates, slices.Max(c.states)+1))
			for _, op := range ops {
				st := c.states[op.ID]
				plan.OpOrder[st] = append(plan.OpOrder[st], op)
			}
			for _, st := range c.reentrant {
				plan.ReentrantStates[st] = true
			}
			for _, from := range c.transitions {
				cond := g.Fn.Lookup("op_1")
				if cond == nil {
					t.Fatal("no condition variable op_1")
				}
				plan.Transitions = append(plan.Transitions,
					Transition{From: from, Cond: cond, CondValue: true, To: done})
			}
			classifyVars(plan)
			got := map[string]VarClass{}
			for v, cls := range plan.VarClass {
				got[v.Name] = cls
			}
			for name, want := range c.want {
				if cls, ok := got[name]; !ok {
					t.Errorf("%s: not classified", name)
				} else if cls != want {
					t.Errorf("%s: class %d, want %d", name, cls, want)
				}
			}
		})
	}
}
