package htg

import (
	"fmt"

	"sparkgo/internal/ir"
)

// This file is the lossless serialization of hierarchical task graphs,
// the midend half of the disk-backed artifact cache. A graph is a
// pointer web — ops reference variables of the program they were
// lowered from, blocks reference ops, the node tree references blocks —
// so the wire form flattens every pointer into a table index, exactly
// as ir's codec does for variables: the embedded program travels in its
// own lossless encoding (ir.EncodeProgram), variables are referenced
// into the graph's VarTable (globals first, then the function's
// locals), basic blocks by position in Blocks, and the node tree is a
// recursive tagged union. Decoding rebuilds the identical web over a
// freshly decoded program; encode(decode(x)) is byte-identical to x,
// which is what lets revived artifacts be fingerprint-verified by
// re-encoding.
//
// Every wire struct is map-free and serialized field-by-field in a
// fixed order (wirecodec.go), so identical graphs encode to identical
// bytes.

// VarTable returns the graph's variable reference table — the program's
// globals first, then the graph function's locals — the shared indexing
// every codec layered over a graph (the schedule codec, the dependence
// edges) uses to reference variables.
func (g *Graph) VarTable() []*ir.Var {
	out := make([]*ir.Var, 0, len(g.Prog.Globals)+len(g.Fn.Locals))
	out = append(out, g.Prog.Globals...)
	out = append(out, g.Fn.Locals...)
	return out
}

// Node tree kinds.
const (
	nodeSeq = iota
	nodeBB
	nodeIf
	nodeLoop
)

type operandCode struct {
	IsConst bool
	Const   int64
	Var     int // variable table reference; -1 for constants
	Typ     ir.TypeCode
}

type opCode struct {
	ID          int
	Kind        int
	Bin         int
	Un          int
	Dst         int // variable table reference; -1 when nil
	Arr         int
	Args        []operandCode
	UnsignedOps bool
}

type guardCode struct {
	Cond  int
	Value bool
}

type blockCode struct {
	ID    int
	Guard []guardCode
	Ops   []opCode
}

// nodeCode is the tagged union of HTG tree nodes. Children slices are
// the flattened Seq contents of the respective region.
type nodeCode struct {
	Kind    int
	Nodes   []nodeCode // nodeSeq
	BB      int        // nodeBB: index into Blocks
	Cond    int        // nodeIf / nodeLoop condition variable
	HasElse bool       // nodeIf
	Then    []nodeCode // nodeIf then-Seq
	Else    []nodeCode
	Label   string     // nodeLoop
	InitBB  int        // nodeLoop: block index, -1 when absent
	CondBB  int        // nodeLoop: block index
	Body    []nodeCode // nodeLoop body-Seq
}

type graphCode struct {
	Program []byte // ir.EncodeProgram of g.Prog
	Fn      int    // index into Prog.Funcs
	RetVar  int    // variable table reference, -1 for void
	Blocks  []blockCode
	Root    []nodeCode // the root Seq's nodes
	NextOp  int
}

// graphEncoder maps the graph's pointers onto table indices.
type graphEncoder struct {
	vars   map[*ir.Var]int
	blocks map[*BasicBlock]int
}

func (en *graphEncoder) varRef(v *ir.Var) (int, error) {
	if v == nil {
		return -1, nil
	}
	i, ok := en.vars[v]
	if !ok {
		return 0, fmt.Errorf("htg: encode: reference to foreign variable %q", v.Name)
	}
	return i, nil
}

func (en *graphEncoder) bbRef(bb *BasicBlock) (int, error) {
	if bb == nil {
		return -1, nil
	}
	i, ok := en.blocks[bb]
	if !ok {
		return 0, fmt.Errorf("htg: encode: reference to unregistered block BB%d", bb.ID)
	}
	return i, nil
}

func (en *graphEncoder) operand(o Operand) (operandCode, error) {
	c := operandCode{IsConst: o.IsConst, Const: o.Const, Var: -1, Typ: ir.EncodeType(o.Typ)}
	if !o.IsConst {
		i, err := en.varRef(o.Var)
		if err != nil {
			return c, err
		}
		c.Var = i
	}
	return c, nil
}

func (en *graphEncoder) op(op *Op) (opCode, error) {
	c := opCode{ID: op.ID, Kind: int(op.Kind), Bin: int(op.Bin), Un: int(op.Un),
		UnsignedOps: op.UnsignedOps}
	var err error
	if c.Dst, err = en.varRef(op.Dst); err != nil {
		return c, err
	}
	if c.Arr, err = en.varRef(op.Arr); err != nil {
		return c, err
	}
	for _, a := range op.Args {
		ac, err := en.operand(a)
		if err != nil {
			return c, err
		}
		c.Args = append(c.Args, ac)
	}
	return c, nil
}

func (en *graphEncoder) node(n Node) (nodeCode, error) {
	switch x := n.(type) {
	case *Seq:
		nodes, err := en.seq(x)
		if err != nil {
			return nodeCode{}, err
		}
		return nodeCode{Kind: nodeSeq, Nodes: nodes}, nil
	case *BBNode:
		i, err := en.bbRef(x.BB)
		if err != nil {
			return nodeCode{}, err
		}
		return nodeCode{Kind: nodeBB, BB: i}, nil
	case *IfNode:
		cond, err := en.varRef(x.Cond)
		if err != nil {
			return nodeCode{}, err
		}
		then, err := en.seq(x.Then)
		if err != nil {
			return nodeCode{}, err
		}
		c := nodeCode{Kind: nodeIf, Cond: cond, Then: then}
		if x.Else != nil {
			c.HasElse = true
			if c.Else, err = en.seq(x.Else); err != nil {
				return nodeCode{}, err
			}
		}
		return c, nil
	case *LoopNode:
		cond, err := en.varRef(x.Cond)
		if err != nil {
			return nodeCode{}, err
		}
		initBB, err := en.bbRef(x.InitBB)
		if err != nil {
			return nodeCode{}, err
		}
		condBB, err := en.bbRef(x.CondBB)
		if err != nil {
			return nodeCode{}, err
		}
		body, err := en.seq(x.Body)
		if err != nil {
			return nodeCode{}, err
		}
		return nodeCode{Kind: nodeLoop, Label: x.Label, Cond: cond,
			InitBB: initBB, CondBB: condBB, Body: body}, nil
	}
	return nodeCode{}, fmt.Errorf("htg: encode: unknown node type %T", n)
}

func (en *graphEncoder) seq(s *Seq) ([]nodeCode, error) {
	if s == nil {
		return nil, nil
	}
	out := make([]nodeCode, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		c, err := en.node(n)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// EncodeGraph serializes a graph losslessly into a self-contained byte
// string: the embedded program (ir.EncodeProgram), the block/op lists,
// and the node tree, with every pointer flattened to a table index and
// framed by the deterministic binary codec of internal/wire. The
// inverse is DecodeGraph.
func EncodeGraph(g *Graph) ([]byte, error) {
	gc, err := flattenGraph(g)
	if err != nil {
		return nil, err
	}
	return encodeGraphWire(gc), nil
}

// flattenGraph lowers the graph's pointer web onto the intermediate
// wire structs, the embedded program in its own lossless encoding.
func flattenGraph(g *Graph) (*graphCode, error) {
	prog, err := ir.EncodeProgram(g.Prog)
	if err != nil {
		return nil, fmt.Errorf("htg: encode program: %w", err)
	}
	gc := graphCode{Program: prog, Fn: -1, NextOp: g.nextOp}
	for i, f := range g.Prog.Funcs {
		if f == g.Fn {
			gc.Fn = i
			break
		}
	}
	if gc.Fn < 0 {
		return nil, fmt.Errorf("htg: encode: graph function %q not in program", g.Fn.Name)
	}
	en := &graphEncoder{vars: map[*ir.Var]int{}, blocks: map[*BasicBlock]int{}}
	for i, v := range g.VarTable() {
		en.vars[v] = i
	}
	for i, bb := range g.Blocks {
		en.blocks[bb] = i
	}
	if gc.RetVar, err = en.varRef(g.RetVar); err != nil {
		return nil, err
	}
	for _, bb := range g.Blocks {
		bc := blockCode{ID: bb.ID}
		for _, gt := range bb.Guard {
			ci, err := en.varRef(gt.Cond)
			if err != nil {
				return nil, err
			}
			bc.Guard = append(bc.Guard, guardCode{Cond: ci, Value: gt.Value})
		}
		for _, op := range bb.Ops {
			oc, err := en.op(op)
			if err != nil {
				return nil, err
			}
			bc.Ops = append(bc.Ops, oc)
		}
		gc.Blocks = append(gc.Blocks, bc)
	}
	if gc.Root, err = en.seq(g.Root); err != nil {
		return nil, err
	}
	return &gc, nil
}

// graphDecoder rebuilds the pointer web from table indices.
type graphDecoder struct {
	vars   []*ir.Var
	blocks []*BasicBlock
}

func (de *graphDecoder) varAt(i int) (*ir.Var, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(de.vars) {
		return nil, fmt.Errorf("htg: decode: variable reference %d out of range", i)
	}
	return de.vars[i], nil
}

func (de *graphDecoder) bbAt(i int) (*BasicBlock, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(de.blocks) {
		return nil, fmt.Errorf("htg: decode: block reference %d out of range", i)
	}
	return de.blocks[i], nil
}

func (de *graphDecoder) operand(c operandCode) (Operand, error) {
	t, err := ir.DecodeType(c.Typ)
	if err != nil {
		return Operand{}, err
	}
	o := Operand{IsConst: c.IsConst, Const: c.Const, Typ: t}
	if !c.IsConst {
		if o.Var, err = de.varAt(c.Var); err != nil {
			return Operand{}, err
		}
		if o.Var == nil {
			return Operand{}, fmt.Errorf("htg: decode: variable operand without variable")
		}
	}
	return o, nil
}

func (de *graphDecoder) op(c opCode, bb *BasicBlock) (*Op, error) {
	op := &Op{ID: c.ID, Kind: OpKind(c.Kind), Bin: ir.BinOp(c.Bin), Un: ir.UnOp(c.Un),
		BB: bb, UnsignedOps: c.UnsignedOps}
	var err error
	if op.Dst, err = de.varAt(c.Dst); err != nil {
		return nil, err
	}
	if op.Arr, err = de.varAt(c.Arr); err != nil {
		return nil, err
	}
	for _, ac := range c.Args {
		a, err := de.operand(ac)
		if err != nil {
			return nil, err
		}
		op.Args = append(op.Args, a)
	}
	return op, nil
}

func (de *graphDecoder) node(c nodeCode) (Node, error) {
	switch c.Kind {
	case nodeSeq:
		return de.seq(c.Nodes)
	case nodeBB:
		bb, err := de.bbAt(c.BB)
		if err != nil {
			return nil, err
		}
		if bb == nil {
			return nil, fmt.Errorf("htg: decode: BB node without block")
		}
		return &BBNode{BB: bb}, nil
	case nodeIf:
		cond, err := de.varAt(c.Cond)
		if err != nil {
			return nil, err
		}
		then, err := de.seq(c.Then)
		if err != nil {
			return nil, err
		}
		n := &IfNode{Cond: cond, Then: then}
		if c.HasElse {
			if n.Else, err = de.seq(c.Else); err != nil {
				return nil, err
			}
		}
		return n, nil
	case nodeLoop:
		cond, err := de.varAt(c.Cond)
		if err != nil {
			return nil, err
		}
		initBB, err := de.bbAt(c.InitBB)
		if err != nil {
			return nil, err
		}
		condBB, err := de.bbAt(c.CondBB)
		if err != nil {
			return nil, err
		}
		body, err := de.seq(c.Body)
		if err != nil {
			return nil, err
		}
		return &LoopNode{Label: c.Label, Cond: cond, InitBB: initBB,
			CondBB: condBB, Body: body}, nil
	}
	return nil, fmt.Errorf("htg: decode: unknown node kind %d", c.Kind)
}

func (de *graphDecoder) seq(cs []nodeCode) (*Seq, error) {
	s := &Seq{Nodes: make([]Node, 0, len(cs))}
	for _, c := range cs {
		n, err := de.node(c)
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, n)
	}
	return s, nil
}

// DecodeGraph reconstructs a graph serialized by EncodeGraph: the
// program is decoded first, then every variable, block, and op
// reference is resolved against it, so the result shares nothing with
// any other graph.
func DecodeGraph(data []byte) (*Graph, error) {
	gc, err := decodeGraphWire(data)
	if err != nil {
		return nil, fmt.Errorf("htg: decode: %w", err)
	}
	return rebuildGraph(gc)
}

// rebuildGraph resolves the flattened form back into a pointer web over
// a freshly decoded program.
func rebuildGraph(gc *graphCode) (*Graph, error) {
	prog, err := ir.DecodeProgram(gc.Program)
	if err != nil {
		return nil, fmt.Errorf("htg: decode: %w", err)
	}
	if gc.Fn < 0 || gc.Fn >= len(prog.Funcs) {
		return nil, fmt.Errorf("htg: decode: function reference %d out of range", gc.Fn)
	}
	g := &Graph{Prog: prog, Fn: prog.Funcs[gc.Fn], nextOp: gc.NextOp}
	de := &graphDecoder{vars: g.VarTable()}
	if g.RetVar, err = de.varAt(gc.RetVar); err != nil {
		return nil, err
	}
	// Blocks first (shells), so the node tree and op backpointers can
	// resolve them.
	for _, bc := range gc.Blocks {
		bb := &BasicBlock{ID: bc.ID}
		for _, gcd := range bc.Guard {
			cv, err := de.varAt(gcd.Cond)
			if err != nil {
				return nil, err
			}
			bb.Guard = append(bb.Guard, GuardTerm{Cond: cv, Value: gcd.Value})
		}
		g.Blocks = append(g.Blocks, bb)
		de.blocks = append(de.blocks, bb)
	}
	for i, bc := range gc.Blocks {
		bb := g.Blocks[i]
		for _, oc := range bc.Ops {
			op, err := de.op(oc, bb)
			if err != nil {
				return nil, err
			}
			bb.Ops = append(bb.Ops, op)
		}
	}
	if g.Root, err = de.seq(gc.Root); err != nil {
		return nil, err
	}
	return g, nil
}
