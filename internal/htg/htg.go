// Package htg builds the hierarchical task graph (HTG) of a behavioral
// description: the representation the Spark paper schedules on (§3.1.1,
// Fig 5). Statements lower to three-address operations grouped into basic
// blocks; structured control flow becomes If and Loop compound nodes; every
// basic block carries its path guard (the condition conjunction under which
// it executes). The package also enumerates chaining trails — all the
// control paths leading back from a basic block — which the scheduler's
// chaining heuristic validates exactly as §3.1.1 describes.
//
// A graph is derived data and has no wire format of its own. Lower is a
// deterministic function of the program: it numbers ops 0..n-1 in
// AllOps order and names its temporaries from the function's counter,
// so lowering a decoded copy of a program rebuilds the same ops and the
// same VarTable. The midend artifact persists the program before
// lowering and lowers it again on revival.
package htg

import (
	"fmt"

	"sparkgo/internal/ir"
)

// OpKind classifies three-address operations.
type OpKind int

const (
	// OpBin applies a binary operator: Dst = Args[0] <BinOp> Args[1].
	OpBin OpKind = iota
	// OpUn applies a unary operator: Dst = <UnOp> Args[0].
	OpUn
	// OpMux selects: Dst = Args[0] ? Args[1] : Args[2].
	OpMux
	// OpCopy moves a value (with implicit width conversion):
	// Dst = Args[0].
	OpCopy
	// OpLoad reads an array element: Dst = Arr[Args[0]].
	OpLoad
	// OpStore writes an array element: Arr[Args[0]] = Args[1].
	OpStore
)

func (k OpKind) String() string {
	switch k {
	case OpBin:
		return "bin"
	case OpUn:
		return "un"
	case OpMux:
		return "mux"
	case OpCopy:
		return "copy"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Operand is a value reference: a constant or a variable.
type Operand struct {
	IsConst bool
	Const   int64
	Var     *ir.Var
	Typ     *ir.Type
}

// ConstOperand builds a constant operand.
func ConstOperand(v int64, t *ir.Type) Operand {
	return Operand{IsConst: true, Const: t.Canon(v), Typ: t}
}

// VarOperand builds a variable operand.
func VarOperand(v *ir.Var) Operand { return Operand{Var: v, Typ: v.Type} }

func (o Operand) String() string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	return o.Var.Name
}

// Op is one three-address operation.
type Op struct {
	ID   int
	Kind OpKind
	Bin  ir.BinOp // OpBin only
	Un   ir.UnOp  // OpUn only
	Dst  *ir.Var  // result (nil for OpStore)
	Arr  *ir.Var  // OpLoad/OpStore only
	Args []Operand
	BB   *BasicBlock
	// UnsignedOps records the operand-signedness rule for comparisons,
	// division, and right shift (see interp.UnsignedOperands).
	UnsignedOps bool
}

// Reads returns the variables this op reads (array reads include Arr).
func (op *Op) Reads() []*ir.Var {
	var out []*ir.Var
	for _, a := range op.Args {
		if !a.IsConst {
			out = append(out, a.Var)
		}
	}
	if op.Kind == OpLoad {
		out = append(out, op.Arr)
	}
	return out
}

// Writes returns the variable this op writes (the array for OpStore).
func (op *Op) Writes() *ir.Var {
	if op.Kind == OpStore {
		return op.Arr
	}
	return op.Dst
}

func (op *Op) String() string {
	switch op.Kind {
	case OpBin:
		return fmt.Sprintf("%s = %s %s %s", op.Dst, op.Args[0], op.Bin, op.Args[1])
	case OpUn:
		return fmt.Sprintf("%s = %s%s", op.Dst, op.Un, op.Args[0])
	case OpMux:
		return fmt.Sprintf("%s = %s ? %s : %s", op.Dst, op.Args[0], op.Args[1], op.Args[2])
	case OpCopy:
		return fmt.Sprintf("%s = %s", op.Dst, op.Args[0])
	case OpLoad:
		return fmt.Sprintf("%s = %s[%s]", op.Dst, op.Arr, op.Args[0])
	case OpStore:
		return fmt.Sprintf("%s[%s] = %s", op.Arr, op.Args[0], op.Args[1])
	}
	return "?"
}

// GuardTerm is one conjunct of a basic block's path condition: the
// condition variable of an enclosing IfNode and the branch it must take.
type GuardTerm struct {
	Cond  *ir.Var
	Value bool
}

// BasicBlock is a maximal straight-line run of operations.
type BasicBlock struct {
	ID    int
	Ops   []*Op
	Guard []GuardTerm // path condition (outermost first)
}

func (bb *BasicBlock) String() string { return fmt.Sprintf("BB%d", bb.ID) }

// Node is an HTG node.
type Node interface{ isNode() }

// Seq is an ordered sequence of HTG nodes.
type Seq struct {
	Nodes []Node
}

func (*Seq) isNode() {}

// BBNode wraps a basic block as an HTG node.
type BBNode struct {
	BB *BasicBlock
}

func (*BBNode) isNode() {}

// IfNode is a two-way conditional region. The condition value is the
// variable Cond, computed by ops in an earlier basic block.
type IfNode struct {
	Cond *ir.Var
	Then *Seq
	Else *Seq // may be nil
}

func (*IfNode) isNode() {}

// LoopNode is a loop region. CondBB re-evaluates the condition (into Cond)
// before every iteration; Body contains the body (with the for-post ops
// appended).
type LoopNode struct {
	Label  string
	InitBB *BasicBlock // may be empty; runs once
	CondBB *BasicBlock // evaluated each iteration
	Cond   *ir.Var
	Body   *Seq
}

func (*LoopNode) isNode() {}

// Graph is the HTG of one function.
type Graph struct {
	Prog   *ir.Program
	Fn     *ir.Func
	Root   *Seq
	Blocks []*BasicBlock
	// RetVar receives the function's return value (nil for void).
	RetVar *ir.Var
}

// VarTable returns the graph's variable reference table — the program's
// globals first, then the graph function's locals — the shared indexing
// the schedule plan codec references variables by.
func (g *Graph) VarTable() []*ir.Var {
	out := make([]*ir.Var, 0, len(g.Prog.Globals)+len(g.Fn.Locals))
	out = append(out, g.Prog.Globals...)
	out = append(out, g.Fn.Locals...)
	return out
}

// AllOps returns every op in the graph in construction order.
func (g *Graph) AllOps() []*Op {
	var out []*Op
	for _, bb := range g.Blocks {
		out = append(out, bb.Ops...)
	}
	return out
}

// OpCount returns the total number of operations.
func (g *Graph) OpCount() int {
	n := 0
	for _, bb := range g.Blocks {
		n += len(bb.Ops)
	}
	return n
}

// HasLoops reports whether the graph contains any loop node.
func (g *Graph) HasLoops() bool {
	found := false
	WalkNodes(g.Root, func(n Node) {
		if _, ok := n.(*LoopNode); ok {
			found = true
		}
	})
	return found
}

// WalkNodes visits every node in the tree, pre-order.
func WalkNodes(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	switch x := n.(type) {
	case *Seq:
		for _, c := range x.Nodes {
			WalkNodes(c, fn)
		}
	case *IfNode:
		WalkNodes(x.Then, fn)
		if x.Else != nil {
			WalkNodes(x.Else, fn)
		}
	case *LoopNode:
		WalkNodes(x.Body, fn)
	}
}

// MutuallyExclusive reports whether two basic blocks can never execute in
// the same activation: their path guards contradict on some condition.
// (Paper §2: "mutually exclusive operations can be scheduled in the same
// clock cycle on the same resource".)
func MutuallyExclusive(a, b *BasicBlock) bool {
	for _, ga := range a.Guard {
		for _, gb := range b.Guard {
			if ga.Cond == gb.Cond && ga.Value != gb.Value {
				return true
			}
		}
	}
	return false
}

// Trail is one control path from the graph entry to a target block: the
// list of basic blocks traversed, target last (paper §3.1.1 walks them
// "backwards from the basic block", we store them forward).
type Trail []*BasicBlock

// Trails enumerates every control path from the start of the graph to the
// target block, exactly the trails of paper Fig 5. Loop bodies are treated
// as straight-line regions (one pass); the paper's single-cycle designs are
// loop-free by the time trails matter. A path that cannot reach the target
// contributes nothing; a path ends at its first occurrence of the target.
func (g *Graph) Trails(target *BasicBlock) []Trail {
	var out []Trail
	var cur Trail
	var enum func(nodes []Node)
	var enumNode func(n Node, rest []Node)
	enumNode = func(n Node, rest []Node) {
		switch x := n.(type) {
		case *BBNode:
			cur = append(cur, x.BB)
			if x.BB == target {
				t := make(Trail, len(cur))
				copy(t, cur)
				out = append(out, t)
			} else {
				enum(rest)
			}
			cur = cur[:len(cur)-1]
		case *Seq:
			enum(append(append([]Node{}, x.Nodes...), rest...))
		case *IfNode:
			enumNode(x.Then, rest)
			if x.Else != nil {
				enumNode(x.Else, rest)
			} else {
				// Fall-through arm: this path skips the if entirely.
				enum(rest)
			}
		case *LoopNode:
			seq := []Node{}
			if x.InitBB != nil {
				seq = append(seq, &BBNode{BB: x.InitBB})
			}
			seq = append(seq, &BBNode{BB: x.CondBB})
			seq = append(seq, x.Body.Nodes...)
			seq = append(seq, rest...)
			enum(seq)
		}
	}
	enum = func(nodes []Node) {
		if len(nodes) == 0 {
			return
		}
		enumNode(nodes[0], nodes[1:])
	}
	enum(g.Root.Nodes)
	return out
}
