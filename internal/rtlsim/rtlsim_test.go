package rtlsim_test

import (
	"math/rand"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/interp"
	"sparkgo/internal/parser"
	"sparkgo/internal/rtlsim"
)

func synth(t *testing.T, src string, opt core.Options) *core.Result {
	t.Helper()
	p := parser.MustParse("d", src)
	res, err := core.Synthesize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleCycleRun(t *testing.T) {
	res := synth(t, `
uint8 a;
uint8 out;
void main() {
  out = a + 1;
}
`, core.Options{})
	sim := rtlsim.New(res.Module)
	if err := sim.SetScalar("a", 41); err != nil {
		t.Fatal(err)
	}
	cycles, err := sim.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 1 {
		t.Errorf("cycles = %d, want 1", cycles)
	}
	v, err := sim.Scalar("out")
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("out = %d, want 42", v)
	}
	if !sim.Done() {
		t.Error("not done after run")
	}
}

func TestResetRestoresState(t *testing.T) {
	res := synth(t, `
uint8 a;
uint8 out;
void main() {
  out = a * 2;
}
`, core.Options{})
	sim := rtlsim.New(res.Module)
	sim.SetScalar("a", 10)
	sim.Run(8)
	v1, _ := sim.Scalar("out")
	sim.Reset()
	sim.SetScalar("a", 3)
	if _, err := sim.Run(8); err != nil {
		t.Fatal(err)
	}
	v2, _ := sim.Scalar("out")
	if v1 != 20 || v2 != 6 {
		t.Errorf("out1=%d out2=%d, want 20 and 6", v1, v2)
	}
}

func TestMultiCycleFSM(t *testing.T) {
	// Classical preset with a loop: a real FSM with a back edge.
	res := synth(t, `
uint8 data[4];
uint16 sum;
void main() {
  uint8 i;
  sum = 0;
  for (i = 0; i < 4; i++) {
    sum += data[i];
  }
}
`, core.Options{Preset: core.ClassicalASIC})
	sim := rtlsim.New(res.Module)
	if err := sim.SetArray("data", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	cycles, err := sim.Run(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 4 {
		t.Errorf("cycles = %d, want > 4 (loop FSM)", cycles)
	}
	v, _ := sim.Scalar("sum")
	if v != 10 {
		t.Errorf("sum = %d, want 10", v)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	res := synth(t, `
uint8 data[8];
uint16 sum;
void main() {
  uint8 i;
  for (i = 0; i < 8; i++) {
    sum += data[i];
  }
}
`, core.Options{Preset: core.ClassicalASIC})
	sim := rtlsim.New(res.Module)
	if _, err := sim.Run(2); err == nil {
		t.Error("expected max-cycles error")
	}
}

func TestUnknownPortErrors(t *testing.T) {
	res := synth(t, "uint8 g;\nvoid main() { g = 1; }", core.Options{})
	sim := rtlsim.New(res.Module)
	if err := sim.SetScalar("nope", 1); err == nil {
		t.Error("expected error for unknown scalar port")
	}
	if err := sim.SetArray("nope", nil); err == nil {
		t.Error("expected error for unknown array port")
	}
	if _, err := sim.Scalar("nope"); err == nil {
		t.Error("expected error reading unknown port")
	}
}

// Property: same-state register writes are two-phase (a reg-to-reg swap
// commits pre-clock values regardless of write order).
func TestRegisterSwapTwoPhase(t *testing.T) {
	// x and y swap in a loop body: both commits happen in one state in
	// the sequential schedule. Two-phase commit makes the swap exact.
	res := synth(t, `
uint8 x;
uint8 y;
uint8 rounds;
void main() {
  uint8 i;
  uint8 t;
  for (i = 0; i < 3; i++) {
    t = x;
    x = y;
    y = t;
  }
  rounds = i;
}
`, core.Options{Preset: core.ClassicalASIC})
	sim := rtlsim.New(res.Module)
	sim.SetScalar("x", 7)
	sim.SetScalar("y", 9)
	if _, err := sim.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	x, _ := sim.Scalar("x")
	y, _ := sim.Scalar("y")
	// 3 swaps: x=9, y=7.
	if x != 9 || y != 7 {
		t.Errorf("after 3 swaps x=%d y=%d, want 9 7", x, y)
	}
}

// Property: for random programs from the corpus, the RTL agrees with the
// interpreter under both presets on fresh random stimuli (beyond what
// core.Verify already ran during synthesis tests).
func TestCrossValidationRandomStimuli(t *testing.T) {
	src := `
uint8 a;
uint8 b;
uint8 c;
uint8 out;
void main() {
  uint8 t;
  t = (a ^ b) + (c & 15);
  if (t > 100) {
    t = t - 100;
  }
  if (t > a) {
    out = t;
  } else {
    out = a;
  }
}
`
	for _, preset := range []core.Preset{core.MicroprocessorBlock, core.ClassicalASIC} {
		res := synth(t, src, core.Options{Preset: preset})
		p := res.Input
		rng := rand.New(rand.NewSource(123))
		for trial := 0; trial < 100; trial++ {
			env := interp.RandomEnv(p, rng)
			ref := env.Clone()
			if _, err := interp.New(p).RunMain(ref); err != nil {
				t.Fatal(err)
			}
			sim := rtlsim.New(res.Module)
			if err := sim.LoadEnv(p, env); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(1 << 16); err != nil {
				t.Fatal(err)
			}
			if diff := sim.CompareEnv(p, ref); diff != "" {
				t.Fatalf("preset %v trial %d: %s", preset, trial, diff)
			}
		}
	}
}
