package testutil_test

import (
	"math/rand"
	"testing"

	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/testutil"
)

func TestRandomEnvCoversRanges(t *testing.T) {
	p := parser.MustParse("t", `
uint4 small;
int8 signed_v;
bool flag;
uint8 arr[16];
void main() { }
`)
	rng := rand.New(rand.NewSource(1))
	sawNegative := false
	sawBigSmall := false
	for i := 0; i < 200; i++ {
		env := interp.RandomEnv(p, rng)
		s := env.Scalar(p.Global("small"))
		if s < 0 || s > 15 {
			t.Fatalf("uint4 out of range: %d", s)
		}
		if s > 7 {
			sawBigSmall = true
		}
		sv := env.Scalar(p.Global("signed_v"))
		if sv < -128 || sv > 127 {
			t.Fatalf("int8 out of range: %d", sv)
		}
		if sv < 0 {
			sawNegative = true
		}
		f := env.Scalar(p.Global("flag"))
		if f != 0 && f != 1 {
			t.Fatalf("bool out of range: %d", f)
		}
	}
	if !sawNegative {
		t.Error("random int8 never negative in 200 draws")
	}
	if !sawBigSmall {
		t.Error("random uint4 never above 7 in 200 draws")
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := parser.MustParse("a", `
uint8 x;
uint8 out;
void main() { out = x + 1; }
`)
	b := parser.MustParse("b", `
uint8 x;
uint8 out;
void main() { out = x + 2; }
`)
	if err := testutil.Equivalent(a, b, 20, 1); err == nil {
		t.Error("expected mismatch between +1 and +2 programs")
	}
	if err := testutil.Equivalent(a, ir.CloneProgram(a), 20, 1); err != nil {
		t.Errorf("clone should be equivalent: %v", err)
	}
}

func TestEquivalentMatchesByName(t *testing.T) {
	// Same semantics, different Var objects (independent parses).
	a := parser.MustParse("a", "uint8 g;\nvoid main() { g = g * 2; }")
	b := parser.MustParse("b", "uint8 g;\nvoid main() { g = g + g; }")
	if err := testutil.Equivalent(a, b, 30, 9); err != nil {
		t.Errorf("g*2 and g+g should be equivalent: %v", err)
	}
}
