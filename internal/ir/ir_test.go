package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := []struct {
		typ  *Type
		want string
	}{
		{UInt(8), "uint8"},
		{Int(32), "int32"},
		{UInt(1), "uint1"},
		{Bool, "bool"},
		{Void, "void"},
		{Array(UInt(8), 19), "uint8[19]"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.typ, got, c.want)
		}
	}
}

func TestTypeCanonUnsigned(t *testing.T) {
	u4 := UInt(4)
	cases := []struct{ in, want int64 }{
		{0, 0}, {15, 15}, {16, 0}, {17, 1}, {-1, 15}, {255, 15},
	}
	for _, c := range cases {
		if got := u4.Canon(c.in); got != c.want {
			t.Errorf("u4.Canon(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTypeCanonSigned(t *testing.T) {
	i4 := Int(4)
	cases := []struct{ in, want int64 }{
		{0, 0}, {7, 7}, {8, -8}, {15, -1}, {-1, -1}, {16, 0}, {-9, 7},
	}
	for _, c := range cases {
		if got := i4.Canon(c.in); got != c.want {
			t.Errorf("i4.Canon(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTypeCanonBool(t *testing.T) {
	if Bool.Canon(2) != 0 || Bool.Canon(3) != 1 || Bool.Canon(0) != 0 {
		t.Errorf("bool canon uses bit 0: got %d %d %d",
			Bool.Canon(2), Bool.Canon(3), Bool.Canon(0))
	}
}

func TestCanonIdempotent(t *testing.T) {
	for _, typ := range []*Type{UInt(1), UInt(4), UInt(8), UInt(16), UInt(63), UInt(64),
		Int(1), Int(4), Int(8), Int(32), Int(64), Bool} {
		typ := typ
		f := func(raw int64) bool {
			c := typ.Canon(raw)
			return typ.Canon(c) == c
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("Canon not idempotent for %s: %v", typ, err)
		}
	}
}

func TestCanonRange(t *testing.T) {
	for _, typ := range []*Type{UInt(4), UInt(8), Int(4), Int(8), Int(16)} {
		typ := typ
		f := func(raw int64) bool {
			c := typ.Canon(raw)
			return c >= typ.MinValue() && c <= typ.MaxValue()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("Canon out of range for %s: %v", typ, err)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !UInt(8).Equal(UInt(8)) {
		t.Error("uint8 != uint8")
	}
	if UInt(8).Equal(Int(8)) {
		t.Error("uint8 == int8")
	}
	if UInt(8).Equal(UInt(9)) {
		t.Error("uint8 == uint9")
	}
	if !Array(UInt(8), 4).Equal(Array(UInt(8), 4)) {
		t.Error("array types should be equal")
	}
	if Array(UInt(8), 4).Equal(Array(UInt(8), 5)) {
		t.Error("arrays of different length equal")
	}
}

func TestBinResultTypes(t *testing.T) {
	a := &Var{Name: "a", Type: UInt(8)}
	b := &Var{Name: "b", Type: UInt(4)}
	sum := Add(V(a), V(b))
	if !sum.Type().Equal(UInt(8)) {
		t.Errorf("u8+u4 = %s, want uint8", sum.Type())
	}
	cmp := Lt(V(a), V(b))
	if !cmp.Type().IsBool() {
		t.Errorf("comparison type = %s, want bool", cmp.Type())
	}
	s := &Var{Name: "s", Type: Int(16)}
	mixed := Add(V(a), V(s))
	if mixed.Type().Signed {
		t.Errorf("u8+i16 should be unsigned (mixed), got %s", mixed.Type())
	}
	both := Add(V(s), V(s))
	if !both.Type().Signed || both.Type().Bits != 16 {
		t.Errorf("i16+i16 = %s, want int16", both.Type())
	}
}

func buildSampleProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("sample")
	in := p.NewGlobal("in", Array(UInt(8), 4))
	out := p.NewGlobal("out", UInt(8))
	f := NewFunc("main", Void)
	x := f.NewLocal("x", UInt(8))
	f.Body.Add(
		Assign(V(x), Idx(in, C(0, U8))),
		If(Lt(V(x), C(10, U8)),
			NewBlock(Assign(V(out), Add(V(x), C(1, U8)))),
			NewBlock(Assign(V(out), V(x)))),
	)
	p.AddFunc(f)
	if err := Validate(p); err != nil {
		t.Fatalf("sample program invalid: %v", err)
	}
	return p
}

func TestValidateCatchesUnregisteredVar(t *testing.T) {
	p := buildSampleProgram(t)
	rogue := &Var{Name: "rogue", Type: U8}
	p.Funcs[0].Body.Add(Assign(V(rogue), C(1, U8)))
	if err := Validate(p); err == nil {
		t.Error("expected validation error for unregistered variable")
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	p := buildSampleProgram(t)
	p.Funcs[0].Locals = append(p.Funcs[0].Locals, &Var{Name: "x", Type: U8})
	if err := Validate(p); err == nil {
		t.Error("expected validation error for duplicate local name")
	}
}

func TestValidateCatchesRecursion(t *testing.T) {
	p := NewProgram("rec")
	f := NewFunc("f", U8)
	p.AddFunc(f)
	r := f.NewLocal("r", U8)
	f.Body.Add(
		AssignRaw(V(r), Call(f)),
		&ReturnStmt{Val: V(r)},
	)
	if err := Validate(p); err == nil {
		t.Error("expected validation error for recursion")
	}
}

func TestCloneProgramIsDeep(t *testing.T) {
	p := buildSampleProgram(t)
	q := CloneProgram(p)
	// Mutating the clone must not affect the original.
	q.Funcs[0].Body.Stmts = nil
	if len(p.Funcs[0].Body.Stmts) == 0 {
		t.Fatal("clone shares body with original")
	}
	// Cloned vars are distinct objects with the same names.
	if q.Globals[0] == p.Globals[0] {
		t.Error("clone shares global Var objects")
	}
	if q.Globals[0].Name != p.Globals[0].Name {
		t.Error("clone changed global names")
	}
	if err := Validate(q); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestCloneResolvesCallTargets(t *testing.T) {
	p := NewProgram("calls")
	leaf := NewFunc("leaf", U8)
	leaf.Body.Add(&ReturnStmt{Val: C(7, U8)})
	p.AddFunc(leaf)
	m := NewFunc("main", Void)
	g := p.NewGlobal("g", U8)
	m.Body.Add(AssignRaw(V(g), Call(leaf)))
	p.AddFunc(m)
	if err := Validate(p); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	q := CloneProgram(p)
	call := q.Func("main").Body.Stmts[0].(*AssignStmt).RHS.(*CallExpr)
	if call.F == q.Func("leaf") {
		return
	}
	t.Error("cloned call target not re-resolved to cloned function")
}

func TestPrintRendersCLike(t *testing.T) {
	p := buildSampleProgram(t)
	src := Print(p)
	for _, want := range []string{
		"uint8 in[4];", "uint8 out;", "void main()",
		"if (x < 10) {", "out = x + 1;", "} else {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Print output missing %q:\n%s", want, src)
		}
	}
}

func TestPrintExprPrecedence(t *testing.T) {
	a := &Var{Name: "a", Type: U8}
	b := &Var{Name: "b", Type: U8}
	// (a + b) * a must print parens around the sum.
	e := Bin(OpMul, Add(V(a), V(b)), V(a))
	if got := PrintExpr(e); got != "(a + b) * a" {
		t.Errorf("PrintExpr = %q", got)
	}
	// a + b * a must not.
	e2 := Add(V(a), Bin(OpMul, V(b), V(a)))
	if got := PrintExpr(e2); got != "a + b * a" {
		t.Errorf("PrintExpr = %q", got)
	}
	// Shift binds looser than +: (a << (b + a)) needs parens on RHS.
	e3 := Shl(V(a), Add(V(b), V(a)))
	if got := PrintExpr(e3); got != "a << b + a" {
		// C precedence: << is lower than +, so a << b + a parses as
		// a << (b+a), which is what we built: no parens needed.
		t.Errorf("PrintExpr = %q", got)
	}
}

func TestWalkAndRewrite(t *testing.T) {
	p := buildSampleProgram(t)
	f := p.Funcs[0]
	nIf := 0
	WalkStmts(f.Body, func(s Stmt) bool {
		if _, ok := s.(*IfStmt); ok {
			nIf++
		}
		return true
	})
	if nIf != 1 {
		t.Errorf("found %d ifs, want 1", nIf)
	}
	// Rewrite every constant 1 to 2.
	RewriteAllExprs(f.Body, func(e Expr) Expr {
		if c, ok := e.(*ConstExpr); ok && c.Val == 1 {
			return C(2, c.Typ)
		}
		return e
	})
	src := Print(p)
	if !strings.Contains(src, "x + 2") {
		t.Errorf("rewrite failed:\n%s", src)
	}
}

func TestCountMetrics(t *testing.T) {
	p := buildSampleProgram(t)
	c := Shape(p.Funcs[0])
	if c.Ifs != 1 {
		t.Errorf("Ifs = %d, want 1", c.Ifs)
	}
	if c.Loops != 0 {
		t.Errorf("Loops = %d, want 0", c.Loops)
	}
	if c.Ops < 3 {
		t.Errorf("Ops = %d, want >= 3", c.Ops)
	}
}

func TestNewTempUnique(t *testing.T) {
	f := NewFunc("f", Void)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		v := f.NewTemp("t", U8)
		if seen[v.Name] {
			t.Fatalf("duplicate temp name %s", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestVarsReadCollectsArrays(t *testing.T) {
	arr := &Var{Name: "arr", Type: Array(U8, 4)}
	i := &Var{Name: "i", Type: U8}
	m := map[*Var]bool{}
	VarsRead(Idx(arr, V(i)), m)
	if !m[arr] || !m[i] {
		t.Errorf("VarsRead missed arr or i: %v", m)
	}
}

func TestStmtWrites(t *testing.T) {
	arr := &Var{Name: "arr", Type: Array(U8, 4)}
	x := &Var{Name: "x", Type: U8}
	if got := StmtWrites(Assign(V(x), C(1, U8))); got != x {
		t.Errorf("StmtWrites scalar = %v", got)
	}
	if got := StmtWrites(Assign(Idx(arr, C(0, U8)), C(1, U8))); got != arr {
		t.Errorf("StmtWrites array = %v", got)
	}
}

// TestValidateNameIndex checks that Validate rejects a built name index
// that disagrees with the function's locals.
func TestValidateNameIndex(t *testing.T) {
	p := NewProgram("names")
	f := p.AddFunc(NewFunc("main", Void))
	a := f.NewLocal("a", U8)
	f.Lookup("a")
	if err := Validate(p); err != nil {
		t.Fatalf("in-step index: %v", err)
	}
	f.names["a"] = &Var{Name: "a", Type: U8}
	if err := Validate(p); err == nil {
		t.Error("index mapping a name to a foreign variable validated")
	}
	f.names["a"] = a
	f.names["ghost"] = a
	if err := Validate(p); err == nil {
		t.Error("index holding a name no local has validated")
	}
}

// TestIntTypesAreInterned: Int and UInt return one shared *Type per
// signedness and width, and never the same one for different types.
func TestIntTypesAreInterned(t *testing.T) {
	seen := map[*Type]string{}
	for bits := 1; bits <= 64; bits++ {
		for _, c := range []struct {
			make func(int) *Type
			name string
		}{{Int, "int"}, {UInt, "uint"}} {
			ty := c.make(bits)
			if again := c.make(bits); again != ty {
				t.Fatalf("%s%d: two calls returned two types", c.name, bits)
			}
			if ty.Kind != KindInt || ty.Bits != bits || ty.Signed != (c.name == "int") {
				t.Fatalf("%s%d = %+v", c.name, bits, ty)
			}
			if prev, dup := seen[ty]; dup {
				t.Fatalf("%s and %s share one *Type", prev, ty)
			}
			seen[ty] = ty.String()
		}
	}
	if U8 != UInt(8) || I32 != Int(32) || USizeT != U16 {
		t.Error("the predeclared integer types are not the interned ones")
	}
}
