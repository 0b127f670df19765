package ir_test

import (
	"testing"

	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/transform"
)

// TestFuncNameIndex checks that Lookup, served from the function's name
// index, agrees with a scan of Locals after every way a local is added,
// removed or copied.
func TestFuncNameIndex(t *testing.T) {
	lookup := func(t *testing.T, f *ir.Func, name string, want *ir.Var) {
		t.Helper()
		if got := f.Lookup(name); got != want {
			t.Errorf("Lookup(%q) = %p, want %p", name, got, want)
		}
	}
	valid := func(t *testing.T, p *ir.Program) {
		t.Helper()
		if err := ir.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
	newMain := func() (*ir.Program, *ir.Func) {
		p := ir.NewProgram("names")
		f := p.AddFunc(ir.NewFunc("main", ir.Void, &ir.Var{Name: "x", Type: ir.U8}))
		return p, f
	}

	t.Run("NewLocal", func(t *testing.T) {
		p, f := newMain()
		lookup(t, f, "a", nil) // builds the index
		a := f.NewLocal("a", ir.U8)
		lookup(t, f, "a", a)
		lookup(t, f, "x", f.Params[0])
		valid(t, p)
	})

	t.Run("NewTemp beside a user local", func(t *testing.T) {
		p, f := newMain()
		lookup(t, f, "op_1", nil)
		user := f.NewLocal("op_1", ir.U8)
		tmp := f.NewTemp("op", ir.U8)
		if tmp.Name != "op_2" {
			t.Errorf("temp named %s, want op_2", tmp.Name)
		}
		lookup(t, f, "op_1", user)
		lookup(t, f, "op_2", tmp)
		valid(t, p)
	})

	t.Run("RemoveLocal", func(t *testing.T) {
		p, f := newMain()
		a := f.NewLocal("a", ir.U8)
		lookup(t, f, "a", a)
		f.RemoveLocal(a)
		lookup(t, f, "a", nil)
		b := f.NewLocal("a", ir.U16)
		lookup(t, f, "a", b)
		valid(t, p)
	})

	t.Run("direct append", func(t *testing.T) {
		p, f := newMain()
		lookup(t, f, "a", nil)
		a := &ir.Var{Name: "a", Type: ir.U8}
		f.Locals = append(f.Locals, a)
		lookup(t, f, "a", a)
		valid(t, p)
	})

	t.Run("DCE pruning", func(t *testing.T) {
		p := parser.MustParse("names", `
uint8 a;
uint8 out;
void main() {
  uint8 dead;
  uint8 live;
  dead = a + 1;
  live = a + 2;
  out = live;
}
`)
		f := p.Main()
		dead, live := f.Lookup("dead"), f.Lookup("live")
		if dead == nil || live == nil {
			t.Fatal("parsed locals missing")
		}
		if _, err := transform.DCE().Run(p); err != nil {
			t.Fatal(err)
		}
		lookup(t, f, "dead", nil)
		lookup(t, f, "live", live)
		valid(t, p)
		// A pruned name is free again.
		if v := f.NewTemp("dead", ir.U8); v.Name != "dead_1" {
			t.Errorf("temp named %s, want dead_1", v.Name)
		}
		again := f.NewLocal("dead", ir.U8)
		lookup(t, f, "dead", again)
		valid(t, p)
	})

	t.Run("copies", func(t *testing.T) {
		p, f := newMain()
		a := f.NewLocal("a", ir.U8)
		lookup(t, f, "a", a)
		c := ir.CloneProgram(p)
		lookup(t, c.Main(), "a", c.Main().Locals[1])
		if c.Main().Lookup("a") == a {
			t.Error("clone's Lookup returned the original's variable")
		}
		// The copy's index is its own: adding to it leaves the
		// original alone.
		b := c.Main().NewLocal("b", ir.U8)
		lookup(t, c.Main(), "b", b)
		lookup(t, f, "b", nil)
		valid(t, c)

		enc, err := ir.EncodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ir.DecodeProgram(enc)
		if err != nil {
			t.Fatal(err)
		}
		lookup(t, d.Main(), "a", d.Main().Locals[1])
		if tmp := d.Main().NewTemp("a", ir.U8); d.Main().Lookup(tmp.Name) != tmp {
			t.Errorf("decoded copy lost temp %s", tmp.Name)
		}
		valid(t, d)
		valid(t, p)
	})

	t.Run("first match", func(t *testing.T) {
		_, f := newMain()
		first := f.NewLocal("a", ir.U8)
		f.NewLocal("a", ir.U16)
		lookup(t, f, "a", first)
		f.SetLocals(append([]*ir.Var(nil), f.Locals...))
		lookup(t, f, "a", first)
		f.AddLocal(&ir.Var{Name: "a", Type: ir.U32})
		lookup(t, f, "a", first)
	})
}
