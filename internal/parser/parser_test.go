package parser

import (
	"strings"
	"testing"

	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
)

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("x = 0x1F + 0b101 - 42; // comment\n/* block */ y")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"x", "=", "0x1F", "+", "0b101", "-", "42", ";", "y", ""}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), texts, len(want))
	}
	if toks[2].Val != 31 || toks[4].Val != 5 || toks[6].Val != 42 {
		t.Errorf("literal values: %d %d %d", toks[2].Val, toks[4].Val, toks[6].Val)
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexDirective(t *testing.T) {
	toks, err := LexAll("#bound 16")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokDirective || toks[0].Text != "bound" {
		t.Errorf("directive token = %+v", toks[0])
	}
	if toks[1].Kind != TokNumber || toks[1].Val != 16 {
		t.Errorf("bound value token = %+v", toks[1])
	}
}

func TestLexMaximalMunch(t *testing.T) {
	toks, err := LexAll("a <<= b >> c >= d == e")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tk := range toks {
		if tk.Kind == TokPunct {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"<<=", ">>", ">=", "=="}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"0x", "/* unterminated", "@", "1abc"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q): expected error", src)
		}
	}
}

const miniSrc = `
uint8 out;
uint8 in;

void main() {
  uint8 x;
  x = in + 1;
  if (x > 10) {
    out = x - 10;
  } else {
    out = x;
  }
}
`

func TestParseMini(t *testing.T) {
	p, err := Parse("mini", miniSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Global("out") == nil || p.Global("in") == nil {
		t.Fatal("globals missing")
	}
	m := p.Main()
	if m == nil {
		t.Fatal("main missing")
	}
	if ir.Shape(m).Ifs != 1 {
		t.Errorf("ifs = %d, want 1", ir.Shape(m).Ifs)
	}
}

func TestParseTypes(t *testing.T) {
	p := MustParse("t", `
uint4 a;
int12 b;
bool c;
byte d;
uint e;
int f;
void main() { a = 1; }
`)
	checks := map[string]*ir.Type{
		"a": ir.UInt(4), "b": ir.Int(12), "c": ir.Bool,
		"d": ir.UInt(8), "e": ir.UInt(32), "f": ir.Int(32),
	}
	for name, want := range checks {
		g := p.Global(name)
		if g == nil || !g.Type.Equal(want) {
			t.Errorf("global %s: got %v, want %v", name, g, want)
		}
	}
}

func TestParseRejectsBadPrograms(t *testing.T) {
	bad := map[string]string{
		"undeclared var":    `void main() { x = 1; }`,
		"redeclared":        `void main() { uint8 x; uint8 x; }`,
		"undefined func":    `void main() { uint8 x; x = f(); }`,
		"arity mismatch":    `uint8 f(uint8 a) { return a; } void main() { uint8 x; x = f(); }`,
		"array as scalar":   `uint8 a[4]; void main() { a = 1; }`,
		"scalar indexed":    `uint8 a; void main() { a[0] = 1; }`,
		"void variable":     `void main() { void x; }`,
		"missing semicolon": `void main() { uint8 x; x = 1 }`,
		"bad directive":     `void main() { #frob 3 while (true) {} }`,
		"bound non-while":   `void main() { uint8 x; #bound 4 x = 1; }`,
		"global redefined":  "uint8 g; uint8 g;\nvoid main() {}",
	}
	for name, src := range bad {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseCompoundAssignAndIncrement(t *testing.T) {
	p := MustParse("c", `
uint8 g;
void main() {
  g += 3;
  g++;
  g <<= 1;
}
`)
	env := interp.NewEnv(p)
	env.SetScalar(p.Global("g"), 1)
	if _, err := interp.New(p).RunMain(env); err != nil {
		t.Fatal(err)
	}
	// (1+3+1)<<1 = 10
	if got := env.Scalar(p.Global("g")); got != 10 {
		t.Errorf("g = %d, want 10", got)
	}
}

func TestParseForLoop(t *testing.T) {
	p := MustParse("loop", `
uint16 sum;
uint8 n;
void main() {
  uint8 i;
  sum = 0;
  for (i = 0; i < 10; i++) {
    sum += i;
  }
}
`)
	env := interp.NewEnv(p)
	if _, err := interp.New(p).RunMain(env); err != nil {
		t.Fatal(err)
	}
	if got := env.Scalar(p.Global("sum")); got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
}

func TestParseWhileWithBound(t *testing.T) {
	p := MustParse("w", `
uint8 g;
void main() {
  uint8 x;
  x = 0;
  #bound 8
  while (x < 5) {
    x += 1;
  }
  g = x;
}
`)
	var w *ir.WhileStmt
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		if ws, ok := s.(*ir.WhileStmt); ok {
			w = ws
		}
		return true
	})
	if w == nil || w.Bound != 8 {
		t.Fatalf("while bound not recorded: %+v", w)
	}
}

func TestParseTernaryAndLogical(t *testing.T) {
	p := MustParse("t", `
uint8 g;
uint8 a;
uint8 b;
void main() {
  g = (a > b && a > 10) ? a : b;
}
`)
	env := interp.NewEnv(p)
	env.SetScalar(p.Global("a"), 20)
	env.SetScalar(p.Global("b"), 5)
	if _, err := interp.New(p).RunMain(env); err != nil {
		t.Fatal(err)
	}
	if got := env.Scalar(p.Global("g")); got != 20 {
		t.Errorf("g = %d, want 20", got)
	}
}

func TestParseCallsAndForwardReference(t *testing.T) {
	p := MustParse("fwd", `
uint8 g;
void main() {
  g = helper(3);
}
uint8 helper(uint8 x) {
  return x + 1;
}
`)
	env := interp.NewEnv(p)
	if _, err := interp.New(p).RunMain(env); err != nil {
		t.Fatal(err)
	}
	if got := env.Scalar(p.Global("g")); got != 4 {
		t.Errorf("g = %d, want 4", got)
	}
}

func TestParseScopeShadowing(t *testing.T) {
	p := MustParse("scope", `
uint8 g;
void main() {
  uint8 x;
  x = 1;
  if (x == 1) {
    uint8 x2;
    x2 = 40;
    {
      uint8 inner;
      inner = 2;
      g = x2 + inner;
    }
  }
}
`)
	env := interp.NewEnv(p)
	if _, err := interp.New(p).RunMain(env); err != nil {
		t.Fatal(err)
	}
	if got := env.Scalar(p.Global("g")); got != 42 {
		t.Errorf("g = %d, want 42", got)
	}
}

func TestParseConstNarrowing(t *testing.T) {
	// "b & 3" on a uint8 should stay 8 bits wide, not widen to 32.
	p := MustParse("narrow", `
uint8 b;
uint8 g;
void main() {
  g = b & 3;
}
`)
	a := p.Main().Body.Stmts[0].(*ir.AssignStmt)
	rhs := a.RHS
	if c, ok := rhs.(*ir.CastExpr); ok {
		rhs = c.X
	}
	if w := rhs.Type().Width(); w != 8 {
		t.Errorf("b & 3 width = %d, want 8 (type %s)", w, rhs.Type())
	}
}

func TestParseCastExpr(t *testing.T) {
	p := MustParse("cast", `
uint16 g;
uint8 b;
void main() {
  g = (uint16)b << 4;
}
`)
	env := interp.NewEnv(p)
	env.SetScalar(p.Global("b"), 0xAB)
	if _, err := interp.New(p).RunMain(env); err != nil {
		t.Fatal(err)
	}
	if got := env.Scalar(p.Global("g")); got != 0xAB0 {
		t.Errorf("g = %#x, want 0xab0", got)
	}
}

// Round trip: Print(Parse(src)) must parse again to a program that prints
// identically (fixed point after one round).
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{miniSrc, `
uint8 buf[8];
uint8 out;
uint8 f(uint8 i) {
  uint8 v;
  v = buf[i];
  return v + 1;
}
void main() {
  uint8 i;
  out = 0;
  for (i = 0; i < 8; i = i + 1) {
    out = f(i);
  }
}
`}
	for n, src := range srcs {
		p1, err := Parse("rt", src)
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		printed1 := ir.Print(p1)
		p2, err := Parse("rt", printed1)
		if err != nil {
			t.Fatalf("case %d: reparse failed: %v\nsource:\n%s", n, err, printed1)
		}
		printed2 := ir.Print(p2)
		if printed1 != printed2 {
			t.Errorf("case %d: round trip not stable:\n--- first ---\n%s\n--- second ---\n%s",
				n, printed1, printed2)
		}
	}
}
