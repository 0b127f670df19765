package core_test

import (
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/parser"
)

// Integration corpus: every program must synthesize under both presets and
// co-simulate identically to behavioral interpretation.
var corpus = map[string]string{
	"straightline": `
uint8 a;
uint8 b;
uint8 out;
void main() {
  uint8 t;
  t = a + b;
  out = t * 2 - a;
}
`,
	"conditional": `
uint8 a;
uint8 b;
uint8 out;
void main() {
  if (a > b) {
    out = a - b;
  } else {
    out = b - a;
  }
}
`,
	"nested-conditional": `
uint8 a;
uint8 b;
uint8 c;
uint8 out;
void main() {
  uint8 t;
  t = 0;
  if (a > 10) {
    t = a + 1;
    if (b > 20) {
      t = t + b;
    } else {
      t = t - b;
    }
  }
  out = t;
}
`,
	"loop-sum": `
uint8 data[8];
uint16 sum;
void main() {
  uint8 i;
  sum = 0;
  for (i = 0; i < 8; i++) {
    sum += data[i];
  }
}
`,
	"loop-cond-stores": `
uint8 in[6];
uint8 out[6];
void main() {
  uint8 i;
  for (i = 0; i < 6; i++) {
    if (in[i] > 128) {
      out[i] = in[i] - 128;
    } else {
      out[i] = in[i];
    }
  }
}
`,
	"calls-and-select": `
uint8 x;
uint8 y;
uint8 out;
uint8 pick(uint8 a, uint8 b) {
  uint8 r;
  r = b;
  if (a > b) {
    r = a;
  }
  return r;
}
void main() {
  uint8 t;
  t = pick(x, y);
  out = t + 1;
}
`,
	"ripple": `
uint8 b0;
uint8 b1;
uint8 b2;
uint8 b3;
uint8 marks;
void main() {
  uint8 nsb;
  uint8 m;
  m = 0;
  nsb = 0;
  if (nsb == 0) { m = m | 1; nsb = nsb + (b0 & 3) + 1; }
  if (nsb == 1) { m = m | 2; nsb = nsb + (b1 & 3) + 1; }
  if (nsb == 2) { m = m | 4; nsb = nsb + (b2 & 3) + 1; }
  if (nsb == 3) { m = m | 8; nsb = nsb + (b3 & 3) + 1; }
  marks = m;
}
`,
	"dynamic-index": `
uint8 table[8];
uint8 sel;
uint8 out;
void main() {
  out = table[sel & 7] + 1;
}
`,
	"dynamic-store": `
uint8 arr[4];
uint8 sel;
uint8 val;
void main() {
  arr[sel & 3] = val;
}
`,
	"wide-mix": `
uint16 a;
uint16 b;
uint16 out;
void main() {
  uint16 t;
  if ((a & 255) > (b >> 8)) {
    t = (a << 2) ^ b;
  } else {
    t = a * 3;
  }
  out = t + 1;
}
`,
}

func TestMicroprocessorPresetSynthesizesAndVerifies(t *testing.T) {
	for name, src := range corpus {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			p, err := parser.Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Verify(res, 40, 1234); err != nil {
				t.Fatal(err)
			}
			// The regime's defining property: everything packs into a
			// single cycle (no loops survive full unrolling here).
			if res.Cycles != 1 {
				t.Errorf("cycles = %d, want 1 (single-cycle architecture)", res.Cycles)
			}
		})
	}
}

func TestClassicalPresetSynthesizesAndVerifies(t *testing.T) {
	for name, src := range corpus {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			p, err := parser.Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(p, core.Options{Preset: core.ClassicalASIC})
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Verify(res, 40, 99); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyRejects pins the two ways Verify must fail: an RTL that
// computes something else than the behaviour, and an array port whose
// length differs from the program's array (which the environment would
// otherwise pad away).
func TestVerifyRejects(t *testing.T) {
	synth := func(src string) *core.Result {
		t.Helper()
		p, err := parser.Parse("v", src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const add = "uint8 A[4];\nuint8 out;\nvoid main() { out = A[0] + A[3]; }\n"
	const sub = "uint8 A[4];\nuint8 out;\nvoid main() { out = A[0] - A[3]; }\n"

	res := synth(add)
	res.Input = synth(sub).Input
	if err := core.Verify(res, 20, 1); err == nil || !strings.Contains(err.Error(), "mismatch: out") {
		t.Errorf("wrong design: Verify = %v, want an out mismatch", err)
	}

	res = synth(add)
	res.Module.ArrayPort["A"] = res.Module.ArrayPort["A"][:2]
	if err := core.Verify(res, 20, 1); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("short port: Verify = %v, want a length mismatch", err)
	}
}

func TestBaselineNeedsMoreCycles(t *testing.T) {
	p := parser.MustParse("loop", corpus["loop-sum"])
	fast, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := core.Synthesize(p, core.Options{Preset: core.ClassicalASIC})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles != 1 {
		t.Errorf("microprocessor preset: %d cycles, want 1", fast.Cycles)
	}
	if slow.Cycles <= fast.Cycles {
		t.Errorf("baseline states (%d) should exceed the single-cycle design (%d)",
			slow.Cycles, fast.Cycles)
	}
}

func TestAblationsStillCorrect(t *testing.T) {
	variants := map[string]core.Options{
		"no-speculation": {NoSpeculation: true},
		"no-unroll":      {NoUnroll: true},
		"no-constprop":   {NoConstProp: true},
		"no-chaining":    {NoChaining: true},
		"no-cse":         {NoCSE: true},
	}
	for vname, opt := range variants {
		vname, opt := vname, opt
		t.Run(vname, func(t *testing.T) {
			for name, src := range corpus {
				p, err := parser.Parse(name, src)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Synthesize(p, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := core.Verify(res, 20, 7); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestStageMetricsRecorded(t *testing.T) {
	p := parser.MustParse("m", corpus["calls-and-select"])
	res, err := core.Synthesize(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stage metrics recorded")
	}
	sawInline := false
	for _, st := range res.Stages {
		if st.Pass == "inline" && st.Changed {
			sawInline = true
		}
	}
	if !sawInline {
		t.Error("inline stage not recorded as changing the program")
	}
	final := res.Stages[len(res.Stages)-1]
	if final.Calls != 0 {
		t.Errorf("calls remain after pipeline: %d", final.Calls)
	}
}
