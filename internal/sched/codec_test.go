package sched_test

import (
	"strings"
	"testing"

	"sparkgo/internal/sched"
)

// TestDecodePlanRejectsForgedShape forges plans whose FSM does not fit
// their states, or whose ops are not in the graph they are decoded
// over. Each must fail to decode: the backend indexes states and ops by
// these numbers.
func TestDecodePlanRejectsForgedShape(t *testing.T) {
	const src = `
uint8 data[4];
uint16 sum;
void main() {
  uint8 i;
  for (i = 0; i < 4; i++) {
    sum += data[i];
  }
}
`
	g := prepare(t, src)
	cfg := sched.DefaultConfig()
	cfg.Mode, cfg.Resources = sched.ModeSequential, sched.Classical()
	res, err := sched.Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sched.EncodePlan(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.DecodePlan(enc, g); err != nil {
		t.Fatalf("genuine plan: %v", err)
	}

	// The same plan over a graph whose last block lost its ops: the plan
	// names op IDs at and past that graph's op count.
	short := prepare(t, src)
	for i := len(short.Blocks) - 1; i >= 0; i-- {
		if bb := short.Blocks[i]; len(bb.Ops) > 0 {
			bb.Ops = nil
			break
		}
	}
	if _, err := sched.DecodePlan(enc, short); err == nil ||
		!strings.Contains(err.Error(), "op reference") {
		t.Errorf("plan over a graph with %d of its %d ops: err = %v, want an op reference error",
			short.OpCount(), g.OpCount(), err)
	}

	forgeries := map[string]func(p *sched.Plan){
		"two extra states":   func(p *sched.Plan) { p.NumStates += 2 },
		"one state too few":  func(p *sched.Plan) { p.NumStates-- },
		"edge from nowhere":  func(p *sched.Plan) { p.Transitions[0].From = -3 },
		"edge from past end": func(p *sched.Plan) { p.Transitions[0].From = p.NumStates },
		"edge to past end":   func(p *sched.Plan) { p.Transitions[0].To = p.NumStates },
		"edge to below done": func(p *sched.Plan) { p.Transitions[0].To = -2 },
	}
	for name, forge := range forgeries {
		p := *res.Plan
		p.Transitions = append([]sched.Transition(nil), res.Transitions...)
		forge(&p)
		enc, err := sched.EncodePlan(&p)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := sched.DecodePlan(enc, g); err == nil {
			t.Errorf("%s: forged plan decoded", name)
		}
	}
}
