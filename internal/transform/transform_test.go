package transform_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/pass"
	"sparkgo/internal/testutil"
	"sparkgo/internal/transform"
)

// samplePrograms is a corpus of behavioral descriptions exercising every
// statement form; each transformation must preserve the semantics of all
// of them.
var samplePrograms = map[string]string{
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
  uint8 t;
  if (a > b) {
    t = a - b;
  } else {
    t = b - a;
  }
  out = t;
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
      if (c > 30) {
        t = t + c;
      }
    } else {
      t = t - b;
    }
  }
  out = t;
}
`,
	"loop-accumulate": `
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
	"loop-conditional-body": `
uint8 data[8];
uint8 count;
void main() {
  uint8 i;
  count = 0;
  for (i = 0; i < 8; i++) {
    if (data[i] > 128) {
      count += 1;
    }
  }
}
`,
	"calls": `
uint8 x;
uint8 out;
uint8 double_it(uint8 v) {
  return v + v;
}
uint8 clamp(uint8 v) {
  uint8 r;
  r = v;
  if (v > 100) {
    r = 100;
  }
  return r;
}
void main() {
  uint8 t;
  t = double_it(x);
  out = clamp(t);
}
`,
	"array-store-in-branch": `
uint8 in[4];
uint8 out[4];
uint8 mode;
void main() {
  uint8 i;
  for (i = 0; i < 4; i++) {
    if (mode > 3) {
      out[i] = in[i] + 1;
    } else {
      out[i] = in[i] - 1;
    }
  }
}
`,
	"bounded-while": `
uint8 limit;
uint8 steps;
void main() {
  uint8 x;
  x = 0;
  steps = 0;
  #bound 16
  while (x < 16) {
    x = x + 1 + (limit & 1);
    steps += 1;
  }
}
`,
	"wide-arith": `
uint32 a;
uint32 b;
uint32 out;
void main() {
  out = (a * 3 + b / 2) ^ (a << 4) | (b >> 3);
}
`,
	"dead-code-rich": `
uint8 a;
uint8 out;
void main() {
  uint8 unused;
  uint8 t;
  unused = a * 7;
  t = a + 1;
  t = a + 2;
  out = t;
}
`,
}

const equivTrials = 60

// checkPass applies the pass to each corpus program and requires both
// structural validity and behavioral equivalence.
func checkPass(t *testing.T, pass transform.Pass) {
	t.Helper()
	for name, src := range samplePrograms {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			orig, err := parser.Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			work := ir.CloneProgram(orig)
			if _, err := pass.Run(work); err != nil {
				t.Fatalf("pass failed: %v", err)
			}
			if err := ir.Validate(work); err != nil {
				t.Fatalf("pass produced invalid IR: %v\n%s", err, ir.Print(work))
			}
			if err := testutil.Equivalent(orig, work, equivTrials, 42); err != nil {
				t.Fatalf("pass changed semantics: %v\n--- original ---\n%s\n--- transformed ---\n%s",
					err, ir.Print(orig), ir.Print(work))
			}
		})
	}
}

func TestConstFoldPreservesSemantics(t *testing.T) { checkPass(t, transform.ConstFold()) }
func TestConstPropPreservesSemantics(t *testing.T) { checkPass(t, transform.ConstProp()) }
func TestCopyPropPreservesSemantics(t *testing.T)  { checkPass(t, transform.CopyProp()) }
func TestDCEPreservesSemantics(t *testing.T)       { checkPass(t, transform.DCE()) }
func TestInlinePreservesSemantics(t *testing.T)    { checkPass(t, transform.Inline(nil)) }
func TestUnrollPreservesSemantics(t *testing.T)    { checkPass(t, transform.UnrollFull(nil, 0)) }
func TestSpeculatePreservesSemantics(t *testing.T) { checkPass(t, transform.Speculate()) }
func TestCSEPreservesSemantics(t *testing.T)       { checkPass(t, transform.CSE()) }
func TestNormalizeWhilePreservesSemantics(t *testing.T) {
	checkPass(t, transform.NormalizeWhile())
}

// The paper's coordinated pipeline applied in sequence must also preserve
// semantics on every corpus program.
func TestFullPipelinePreservesSemantics(t *testing.T) {
	for name, src := range samplePrograms {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			orig, err := parser.Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			work := ir.CloneProgram(orig)
			pl := &pass.Pipeline{
				Passes: []transform.Pass{
					transform.NormalizeWhile(),
					transform.Inline(nil),
					transform.DropUncalledFuncs(),
					transform.Speculate(),
					transform.UnrollFull(nil, 0),
					transform.ConstProp(),
					transform.ConstFold(),
					transform.CopyProp(),
					transform.CSE(),
					transform.DCE(),
				},
				MaxRounds: 4,
			}
			if err := pl.Run(work); err != nil {
				t.Fatal(err)
			}
			if err := ir.Validate(work); err != nil {
				t.Fatalf("pipeline produced invalid IR: %v\n%s", err, ir.Print(work))
			}
			if err := testutil.Equivalent(orig, work, equivTrials, 99); err != nil {
				t.Fatalf("pipeline changed semantics: %v\n--- original ---\n%s\n--- transformed ---\n%s",
					err, ir.Print(orig), ir.Print(work))
			}
		})
	}
}

// --- targeted behavior tests (the shape each paper figure claims) ---

// Fig 2: full unrolling eliminates the loop and replicates the body.
func TestUnrollEliminatesLoop(t *testing.T) {
	p := parser.MustParse("fig2", `
uint8 data[8];
uint16 sum;
void main() {
  uint8 i;
  sum = 0;
  for (i = 0; i < 8; i++) {
    sum += data[i];
  }
}
`)
	if _, err := transform.UnrollFull(nil, 0).Run(p); err != nil {
		t.Fatal(err)
	}
	if n := ir.Shape(p.Main()).Loops; n != 0 {
		t.Errorf("loops remaining = %d, want 0", n)
	}
	// 8 iterations of "sum += data[i]" plus inits.
	if n := ir.Shape(p.Main()).Stmts; n < 8 {
		t.Errorf("statements = %d, want >= 8 replicas", n)
	}
}

// Fig 3a/14: constant propagation eliminates the unrolled loop index.
func TestConstPropEliminatesLoopIndex(t *testing.T) {
	p := parser.MustParse("fig14", `
uint8 data[8];
uint16 sum;
void main() {
  uint8 i;
  sum = 0;
  for (i = 0; i < 8; i++) {
    sum += data[i];
  }
}
`)
	pl := &pass.Pipeline{Passes: []transform.Pass{
		transform.UnrollFull(nil, 0),
		transform.ConstProp(),
		transform.DCE(),
	}, MaxRounds: 3}
	if err := pl.Run(p); err != nil {
		t.Fatal(err)
	}
	// The index variable must be gone entirely.
	if v := p.Main().Lookup("i"); v != nil {
		t.Errorf("loop index variable survived:\n%s", ir.Print(p))
	}
	// All array accesses must use constant indices.
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		ir.WalkStmtExprs(s, func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) bool {
				if ix, ok := x.(*ir.IndexExpr); ok {
					if _, isConst := ix.Index.(*ir.ConstExpr); !isConst {
						t.Errorf("non-constant index survived: %s", ir.PrintExpr(ix))
					}
				}
				return true
			})
		})
		return true
	})
}

// Fig 11: speculation leaves only copies (and nested ifs of copies) in
// conditional branches.
func TestSpeculationLeavesOnlyCopies(t *testing.T) {
	p := parser.MustParse("fig11", `
uint8 b1;
uint8 b2;
uint8 b3;
uint8 out;
void main() {
  uint8 lc1;
  uint8 length;
  lc1 = b1 & 15;
  if (b1 > 128) {
    uint8 lc2;
    lc2 = b2 & 15;
    if (b2 > 128) {
      uint8 lc3;
      lc3 = b3 & 15;
      length = lc1 + lc2 + lc3;
    } else {
      length = lc1 + lc2;
    }
  } else {
    length = lc1;
  }
  out = length;
}
`)
	orig := ir.CloneProgram(p)
	if _, err := transform.Speculate().Run(p); err != nil {
		t.Fatal(err)
	}
	if err := testutil.Equivalent(orig, p, equivTrials, 5); err != nil {
		t.Fatalf("speculation broke semantics: %v\n%s", err, ir.Print(p))
	}
	// Every statement inside every conditional branch must now be either
	// a var-to-var copy or a nested if (of the same shape).
	var checkBranch func(b *ir.Block)
	checkBranch = func(b *ir.Block) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *ir.AssignStmt:
				if _, ok := x.RHS.(*ir.VarExpr); !ok {
					t.Errorf("non-copy survives in branch: %s", ir.PrintStmt(s))
				}
			case *ir.IfStmt:
				checkBranch(x.Then)
				if x.Else != nil {
					checkBranch(x.Else)
				}
			default:
				t.Errorf("unexpected statement in branch: %s", ir.PrintStmt(s))
			}
		}
	}
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		if ifs, ok := s.(*ir.IfStmt); ok {
			checkBranch(ifs.Then)
			if ifs.Else != nil {
				checkBranch(ifs.Else)
			}
			return false
		}
		return true
	})
}

// Fig 12: inlining removes all calls.
func TestInlineRemovesCalls(t *testing.T) {
	p := parser.MustParse("fig12", samplePrograms["calls"])
	if _, err := transform.Inline(nil).Run(p); err != nil {
		t.Fatal(err)
	}
	if n := ir.Shape(p.Main()).Calls; n != 0 {
		t.Errorf("calls remaining in main = %d, want 0", n)
	}
}

func TestInlineRejectsNonTailReturn(t *testing.T) {
	p := parser.MustParse("bad", `
uint8 out;
uint8 f(uint8 x) {
  if (x > 1) {
    return 1;
  }
  return 0;
}
void main() {
  out = f(out);
}
`)
	if _, err := transform.Inline(nil).Run(p); err == nil {
		t.Error("expected inline error for non-tail return")
	}
}

func TestDCERemovesDeadAssignments(t *testing.T) {
	p := parser.MustParse("dce", samplePrograms["dead-code-rich"])
	if _, err := transform.DCE().Run(p); err != nil {
		t.Fatal(err)
	}
	src := ir.Print(p)
	if strings.Contains(src, "unused") {
		t.Errorf("dead variable survived:\n%s", src)
	}
	if strings.Contains(src, "a + 1") {
		t.Errorf("overwritten assignment survived:\n%s", src)
	}
}

func TestCopyPropRemovesChains(t *testing.T) {
	p := parser.MustParse("cp", `
uint8 a;
uint8 out;
void main() {
  uint8 t1;
  uint8 t2;
  t1 = a;
  t2 = t1;
  out = t2 + 1;
}
`)
	pl := &pass.Pipeline{Passes: []transform.Pass{
		transform.CopyProp(), transform.DCE(),
	}, MaxRounds: 2}
	if err := pl.Run(p); err != nil {
		t.Fatal(err)
	}
	src := ir.Print(p)
	if !strings.Contains(src, "out = a + 1") {
		t.Errorf("copy chain not collapsed:\n%s", src)
	}
}

func TestCSEDeduplicatesExpressions(t *testing.T) {
	p := parser.MustParse("cse", `
uint8 a;
uint8 b;
uint8 x;
uint8 y;
void main() {
  x = (a + b) * 2;
  y = (a + b) * 2;
}
`)
	orig := ir.CloneProgram(p)
	changed, err := transform.CSE().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("CSE found nothing to do")
	}
	if err := testutil.Equivalent(orig, p, equivTrials, 17); err != nil {
		t.Fatal(err)
	}
	// The second assignment must now be a copy.
	second := p.Main().Body.Stmts[1].(*ir.AssignStmt)
	rhs := second.RHS
	if c, ok := rhs.(*ir.CastExpr); ok {
		rhs = c.X
	}
	if _, ok := rhs.(*ir.VarExpr); !ok {
		t.Errorf("second occurrence not replaced by copy: %s", ir.PrintStmt(second))
	}
}

func TestCSERespectsIntermediateWrites(t *testing.T) {
	p := parser.MustParse("cse2", `
uint8 a;
uint8 b;
uint8 x;
uint8 y;
void main() {
  x = a + b;
  a = 0;
  y = a + b;
}
`)
	orig := ir.CloneProgram(p)
	if _, err := transform.CSE().Run(p); err != nil {
		t.Fatal(err)
	}
	if err := testutil.Equivalent(orig, p, equivTrials, 23); err != nil {
		t.Fatalf("CSE ignored the intervening write: %v\n%s", err, ir.Print(p))
	}
}

// TestCallStoreIntoArray runs CSE and DCE alone, without inlining, on
// programs that store a call's result into a local array. CSE must forget
// what the array held before the store, and DCE must keep the store's
// index computation alive.
func TestCallStoreIntoArray(t *testing.T) {
	for _, tc := range []struct {
		name string
		pass transform.Pass
		src  string
	}{
		{"cse-stale-element", transform.CSE(), `
uint8 x;
uint8 out;
uint8 f(uint8 v) {
  return v + 8;
}
void main() {
  uint8 buf[4];
  uint8 t1;
  uint8 t2;
  buf[0] = x;
  t1 = buf[0] + 1;
  buf[0] = f(x);
  t2 = buf[0] + 1;
  out = t1 ^ t2;
}
`},
		{"dce-store-index", transform.DCE(), `
uint8 x;
uint8 out;
uint8 f(uint8 v) {
  return v + 88;
}
void main() {
  uint8 buf[4];
  uint8 i;
  i = x & 3;
  buf[i] = f(x);
  out = buf[x & 3];
}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := parser.MustParse(tc.name, tc.src)
			work := ir.CloneProgram(orig)
			if _, err := tc.pass.Run(work); err != nil {
				t.Fatal(err)
			}
			if err := testutil.Equivalent(orig, work, equivTrials, 3); err != nil {
				t.Fatalf("%s changed semantics: %v\n%s", tc.pass.Name(), err, ir.Print(work))
			}
		})
	}
}

func TestConstPropFoldsAlwaysTakenBranch(t *testing.T) {
	// The unrolled-ILD pattern: the first "if (1 == NextStartByte)" is
	// statically true and must fold away.
	p := parser.MustParse("fold", `
uint8 out;
void main() {
  uint8 nsb;
  nsb = 1;
  if (nsb == 1) {
    out = 10;
  } else {
    out = 20;
  }
}
`)
	pl := &pass.Pipeline{Passes: []transform.Pass{
		transform.ConstProp(), transform.DCE(),
	}, MaxRounds: 2}
	if err := pl.Run(p); err != nil {
		t.Fatal(err)
	}
	if n := ir.Shape(p.Main()).Ifs; n != 0 {
		t.Errorf("statically-true branch not folded:\n%s", ir.Print(p))
	}
}

func TestUnrollBoundedWhile(t *testing.T) {
	p := parser.MustParse("bw", samplePrograms["bounded-while"])
	orig := ir.CloneProgram(p)
	if _, err := transform.UnrollFull(nil, 0).Run(p); err != nil {
		t.Fatal(err)
	}
	if n := ir.Shape(p.Main()).Loops; n != 0 {
		t.Errorf("bounded while not unrolled: %d loops remain", n)
	}
	if err := testutil.Equivalent(orig, p, equivTrials, 31); err != nil {
		t.Fatalf("while unrolling broke semantics: %v", err)
	}
}

func TestUnrollRefusesUnboundedWhile(t *testing.T) {
	p := parser.MustParse("ub", `
uint8 x;
void main() {
  while (x < 5) {
    x += 1;
  }
}
`)
	if _, err := transform.UnrollFull(nil, 0).Run(p); err != nil {
		t.Fatal(err)
	}
	if n := ir.Shape(p.Main()).Loops; n != 1 {
		t.Errorf("unbounded while should be left alone, %d loops remain", n)
	}
}

func TestUnrollByFactorKeepsLoop(t *testing.T) {
	p := parser.MustParse("pby", `
uint8 data[16];
uint16 sum;
void main() {
  uint8 i;
  sum = 0;
  for (i = 0; i < 16; i++) {
    sum += data[i];
  }
}
`)
	orig := ir.CloneProgram(p)
	label := findLoopLabel(t, p)
	if _, err := transform.UnrollBy(label, 4).Run(p); err != nil {
		t.Fatal(err)
	}
	if n := ir.Shape(p.Main()).Loops; n != 1 {
		t.Errorf("partial unroll must keep the loop, got %d", n)
	}
	if err := testutil.Equivalent(orig, p, equivTrials, 77); err != nil {
		t.Fatalf("partial unroll broke semantics: %v\n%s", err, ir.Print(p))
	}
}

func findLoopLabel(t *testing.T, p *ir.Program) string {
	t.Helper()
	label := ""
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		if f, ok := s.(*ir.ForStmt); ok {
			label = f.Label
		}
		return true
	})
	if label == "" {
		t.Fatal("no loop found")
	}
	return label
}

func TestTripCount(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"for (i = 0; i < 8; i++) { sum += 1; }", 8},
		{"for (i = 0; i <= 8; i++) { sum += 1; }", 9},
		{"for (i = 8; i > 0; i--) { sum += 1; }", 8},
		{"for (i = 0; i < 10; i += 3) { sum += 1; }", 4},
		{"for (i = 0; i != 6; i += 2) { sum += 1; }", 3},
	}
	for _, c := range cases {
		p := parser.MustParse("tc", `
uint16 sum;
void main() {
  uint8 i;
  `+c.src+`
}
`)
		var loop *ir.ForStmt
		ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
			if f, ok := s.(*ir.ForStmt); ok {
				loop = f
			}
			return true
		})
		got, ok := transform.TripCount(loop, 4096)
		if !ok || got != c.want {
			t.Errorf("TripCount(%q) = %d,%v want %d", c.src, got, ok, c.want)
		}
	}
}

// Fig 16: the natural while-form normalizes into the for-form sweep.
func TestNormalizeWhileRewritesCursorLoop(t *testing.T) {
	p := parser.MustParse("fig16", `
uint8 buf[8];
uint8 mark[8];
void main() {
  uint8 nsb;
  uint8 ln;
  nsb = 0;
  #bound 8
  while (nsb <= 7) {
    mark[nsb] = 1;
    ln = (buf[nsb] & 3) + 1;
    nsb = nsb + ln;
  }
}
`)
	orig := ir.CloneProgram(p)
	changed, err := transform.NormalizeWhile().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("normalization did not fire:\n%s", ir.Print(p))
	}
	hasWhile := false
	hasFor := false
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		switch s.(type) {
		case *ir.WhileStmt:
			hasWhile = true
		case *ir.ForStmt:
			hasFor = true
		}
		return true
	})
	if hasWhile || !hasFor {
		t.Errorf("expected while→for: while=%v for=%v", hasWhile, hasFor)
	}
	if err := testutil.Equivalent(orig, p, equivTrials, 55); err != nil {
		t.Fatalf("normalization broke semantics: %v\n%s", err, ir.Print(p))
	}
}

func TestNormalizeWhileRefusesNonMonotone(t *testing.T) {
	// Step may be zero (buf[nsb] & 3 can be 0): syntactic proof fails and
	// there is no #bound, so the loop must be left alone.
	p := parser.MustParse("nm", `
uint8 buf[8];
uint8 mark[8];
void main() {
  uint8 nsb;
  nsb = 0;
  while (nsb <= 7) {
    mark[nsb] = 1;
    nsb = nsb + (buf[nsb] & 3);
  }
}
`)
	changed, err := transform.NormalizeWhile().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("normalization fired without a positivity proof")
	}
}

// TestCSEKeepsTypesApart pins CSE against merging right-hand sides that
// print alike but compute at different widths. After const-prop both
// comparisons print as "x + 1 == 0", but one adds in 8 bits and the other
// in 32, so at x = 255 they disagree. The microprocessor plan must keep
// them apart; every value of x is checked.
func TestCSEKeepsTypesApart(t *testing.T) {
	orig := parser.MustParse("cse-types", `
uint8 x;
bool o1;
bool o2;
void main() {
  uint8 k;
  int32 j;
  bool t1;
  bool t2;
  k = 1;
  j = 1;
  t1 = x + k == 0;
  t2 = x + j == 0;
  o1 = t1;
  o2 = t2;
}
`)
	passes, err := pass.BuildAll(pass.MicroprocessorPlan(pass.Toggles{}))
	if err != nil {
		t.Fatal(err)
	}
	work := ir.CloneProgram(orig)
	if err := (&pass.Pipeline{Passes: passes}).Run(work); err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x < 256; x++ {
		var got [2][2]int64
		for i, p := range []*ir.Program{orig, work} {
			env := interp.NewEnv(p)
			env.SetScalar(p.Global("x"), x)
			if _, err := interp.New(p).RunMain(env); err != nil {
				t.Fatal(err)
			}
			got[i] = [2]int64{env.Scalar(p.Global("o1")), env.Scalar(p.Global("o2"))}
		}
		if got[0] != got[1] {
			t.Fatalf("x=%d: (o1, o2) = %v after the plan, %v before\n%s", x, got[1], got[0], ir.Print(work))
		}
	}
}

// staleIDs runs a pass after scrambling every variable's ID and
// appending a local to main by hand, bypassing AddLocal, so that any ID
// the pass did not give itself is wrong. The extra local is marked a
// parameter, so DCE keeps it, and is removed again after the pass.
type staleIDs struct {
	transform.Pass
	rng *rand.Rand
}

func (s staleIDs) Run(p *ir.Program) (bool, error) {
	vars := append([]*ir.Var(nil), p.Globals...)
	for _, f := range p.Funcs {
		vars = append(vars, f.Locals...)
	}
	for _, v := range vars {
		v.ID = int32(s.rng.Intn(len(vars)+3) - 1)
	}
	m := p.Main()
	extra := &ir.Var{Name: "stale_id_probe", Type: ir.U8, IsParam: true, ID: int32(s.rng.Intn(len(vars)))}
	m.Locals = append(m.Locals, extra)
	changed, err := s.Pass.Run(p)
	kept := make([]*ir.Var, 0, len(m.Locals))
	for _, v := range m.Locals {
		if v != extra {
			kept = append(kept, v)
		}
	}
	m.SetLocals(kept)
	return changed, err
}

// TestPassesIgnoreStaleVarIDs pins the numbering contract of the fact
// tables: a pass numbers a function's variables when it starts on it and
// trusts no other ID. With the IDs scrambled before every pass
// application, the whole pipeline must print the same program.
func TestPassesIgnoreStaleVarIDs(t *testing.T) {
	type design struct {
		name string
		prog *ir.Program
		opt  core.Options
	}
	var designs []design
	for _, preset := range []core.Preset{core.MicroprocessorBlock, core.ClassicalASIC} {
		for _, n := range []int{4, 8, 16} {
			designs = append(designs, design{fmt.Sprintf("ild%d/%s", n, preset), ild.Program(n), core.Options{Preset: preset}})
		}
		designs = append(designs, design{fmt.Sprintf("natural8/%s", preset), ild.NaturalProgram(8),
			core.Options{Preset: preset, NormalizeWhile: true}})
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			run := func(wrap func(transform.Pass) transform.Pass) string {
				passes, err := pass.BuildAll(d.opt.PassSpecs())
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range passes {
					passes[i] = wrap(p)
				}
				work := ir.CloneProgram(d.prog)
				if err := (&pass.Pipeline{Passes: passes}).Run(work); err != nil {
					t.Fatal(err)
				}
				return ir.Print(work)
			}
			want := run(func(p transform.Pass) transform.Pass { return p })
			rng := rand.New(rand.NewSource(1))
			got := run(func(p transform.Pass) transform.Pass { return staleIDs{p, rng} })
			if got != want {
				t.Fatalf("stale IDs changed the result:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
