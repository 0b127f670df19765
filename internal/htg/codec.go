package htg

// This file is the lossless serialization of hierarchical task graphs,
// the midend half of the disk-backed artifact cache. A graph is a
// pointer web — ops reference variables of the program they were
// lowered from, blocks reference ops, the node tree references blocks —
// so every pointer travels as a table index, exactly as ir's codec does
// for variables: the embedded program in its own lossless encoding
// (ir.EncodeProgram), variables as indices into the graph's VarTable
// (globals first, then the function's locals), basic blocks by position
// in Blocks, and the node tree as a recursive tagged union that writes
// its kind first.
//
// Each direction is one walk over internal/wire. The encoder writes the
// live graph field by field in a fixed order, so identical graphs encode
// to identical bytes; the decoder reads the bytes straight back into a
// pointer web over a freshly decoded program, and encode(decode(x)) is
// byte-identical to x, which is what lets revived artifacts be
// fingerprint-verified by re-encoding.

import (
	"fmt"

	"sparkgo/internal/ir"
	"sparkgo/internal/wire"
)

// graphTag versions the HTG wire layout.
const graphTag = "htg/1"

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

// Node tree kinds, in wire order.
const (
	nodeSeq = iota
	nodeBB
	nodeIf
	nodeLoop
)

// graphEncoder writes the graph's pointers as table indices.
type graphEncoder struct {
	e      *wire.Encoder
	vars   map[*ir.Var]int
	blocks map[*BasicBlock]int
}

// varRef writes a variable reference; nil is -1.
func (en *graphEncoder) varRef(v *ir.Var) error {
	i := -1
	if v != nil {
		var ok bool
		if i, ok = en.vars[v]; !ok {
			return fmt.Errorf("htg: encode: reference to foreign variable %q", v.Name)
		}
	}
	en.e.Int(i)
	return nil
}

// bbRef writes a block reference; nil is -1.
func (en *graphEncoder) bbRef(bb *BasicBlock) error {
	i := -1
	if bb != nil {
		var ok bool
		if i, ok = en.blocks[bb]; !ok {
			return fmt.Errorf("htg: encode: reference to unregistered block BB%d", bb.ID)
		}
	}
	en.e.Int(i)
	return nil
}

// EncodeGraph serializes a graph losslessly into a self-contained byte
// string: the embedded program (ir.EncodeProgram), the block/op lists,
// and the node tree, with every pointer written as a table index in the
// deterministic binary layout of internal/wire. The inverse is
// DecodeGraph.
func EncodeGraph(g *Graph) ([]byte, error) {
	prog, err := ir.EncodeProgram(g.Prog)
	if err != nil {
		return nil, fmt.Errorf("htg: encode program: %w", err)
	}
	fn := -1
	for i, f := range g.Prog.Funcs {
		if f == g.Fn {
			fn = i
			break
		}
	}
	if fn < 0 {
		return nil, fmt.Errorf("htg: encode: graph function %q not in program", g.Fn.Name)
	}
	en := &graphEncoder{
		e:      wire.NewEncoder(256 + len(prog)),
		vars:   map[*ir.Var]int{},
		blocks: make(map[*BasicBlock]int, len(g.Blocks)),
	}
	for i, v := range g.VarTable() {
		en.vars[v] = i
	}
	for i, bb := range g.Blocks {
		en.blocks[bb] = i
	}
	e := en.e
	e.Tag(graphTag)
	e.Bytes(prog)
	e.Int(fn)
	if err := en.varRef(g.RetVar); err != nil {
		return nil, err
	}
	e.Int(g.nextOp)
	e.Uvarint(uint64(len(g.Blocks)))
	for _, bb := range g.Blocks {
		e.Int(bb.ID)
		e.Uvarint(uint64(len(bb.Guard)))
		for _, gt := range bb.Guard {
			if err := en.varRef(gt.Cond); err != nil {
				return nil, err
			}
			e.Bool(gt.Value)
		}
		e.Uvarint(uint64(len(bb.Ops)))
		for _, op := range bb.Ops {
			if err := en.op(op); err != nil {
				return nil, err
			}
		}
	}
	if err := en.seq(g.Root, 0); err != nil {
		return nil, err
	}
	return e.Data(), nil
}

func (en *graphEncoder) op(op *Op) error {
	e := en.e
	e.Int(op.ID)
	e.Int(int(op.Kind))
	e.Int(int(op.Bin))
	e.Int(int(op.Un))
	if err := en.varRef(op.Dst); err != nil {
		return err
	}
	if err := en.varRef(op.Arr); err != nil {
		return err
	}
	e.Bool(op.UnsignedOps)
	e.Uvarint(uint64(len(op.Args)))
	for _, a := range op.Args {
		e.Bool(a.IsConst)
		e.Int64(a.Const)
		if a.IsConst {
			e.Int(-1)
		} else if err := en.varRef(a.Var); err != nil {
			return err
		}
		ir.PutType(e, a.Typ)
	}
	return nil
}

// seq writes a region's node list; a nil Seq encodes as an empty one.
// A tree nested past wire.MaxDepth is unencodable, as the decoder would
// reject it.
func (en *graphEncoder) seq(s *Seq, depth int) error {
	if depth > wire.MaxDepth {
		return fmt.Errorf("htg: encode: nesting deeper than %d", wire.MaxDepth)
	}
	if s == nil {
		en.e.Uvarint(0)
		return nil
	}
	en.e.Uvarint(uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		if err := en.node(n, depth); err != nil {
			return err
		}
	}
	return nil
}

func (en *graphEncoder) node(n Node, depth int) error {
	e := en.e
	switch x := n.(type) {
	case *Seq:
		e.Int(nodeSeq)
		return en.seq(x, depth+1)
	case *BBNode:
		e.Int(nodeBB)
		return en.bbRef(x.BB)
	case *IfNode:
		e.Int(nodeIf)
		if err := en.varRef(x.Cond); err != nil {
			return err
		}
		if err := en.seq(x.Then, depth+1); err != nil {
			return err
		}
		e.Bool(x.Else != nil)
		if x.Else == nil {
			return nil
		}
		return en.seq(x.Else, depth+1)
	case *LoopNode:
		e.Int(nodeLoop)
		e.String(x.Label)
		if err := en.varRef(x.Cond); err != nil {
			return err
		}
		if err := en.bbRef(x.InitBB); err != nil {
			return err
		}
		if err := en.bbRef(x.CondBB); err != nil {
			return err
		}
		return en.seq(x.Body, depth+1)
	}
	return fmt.Errorf("htg: encode: unknown node type %T", n)
}

// graphDecoder resolves table indices back into the pointer web.
type graphDecoder struct {
	d      *wire.Decoder
	vars   []*ir.Var
	blocks []*BasicBlock
}

// DecodeGraph reconstructs a graph serialized by EncodeGraph: the
// program is decoded first, then every variable, block, and op
// reference is range-checked and resolved against it, so the result
// shares nothing with any other graph.
func DecodeGraph(data []byte) (*Graph, error) {
	g, err := decodeGraph(wire.NewDecoder(data))
	if err != nil {
		return nil, fmt.Errorf("htg: decode: %w", err)
	}
	return g, nil
}

func decodeGraph(d *wire.Decoder) (*Graph, error) {
	d.Tag(graphTag)
	progBytes := d.Bytes()
	fn, retVar, nextOp := d.Int(), d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	prog, err := ir.DecodeProgram(progBytes)
	if err != nil {
		return nil, err
	}
	if fn < 0 || fn >= len(prog.Funcs) {
		return nil, fmt.Errorf("function reference %d out of range", fn)
	}
	g := &Graph{Prog: prog, Fn: prog.Funcs[fn], nextOp: nextOp}
	de := &graphDecoder{d: d, vars: g.VarTable()}
	if g.RetVar, err = de.varAt(retVar); err != nil {
		return nil, err
	}
	if n := d.Len(3); n > 0 { // a block is >= 3 bytes (id + two counts)
		g.Blocks = make([]*BasicBlock, n)
		de.blocks = g.Blocks
		for i := range g.Blocks {
			if g.Blocks[i], err = de.block(); err != nil {
				return nil, err
			}
		}
	}
	if err := de.checkOpIDs(g); err != nil {
		return nil, err
	}
	if g.Root, err = de.seq(0); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// fail reports a semantic decode error — unless the wire decoder has
// already failed, in which case its zero values caused this one and the
// wire error is the real cause.
func (de *graphDecoder) fail(format string, args ...any) error {
	if err := de.d.Err(); err != nil {
		return err
	}
	return fmt.Errorf(format, args...)
}

// varAt resolves a variable reference; -1 is nil.
func (de *graphDecoder) varAt(i int) (*ir.Var, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(de.vars) {
		return nil, de.fail("variable reference %d out of range", i)
	}
	return de.vars[i], nil
}

// bbAt resolves a block reference; -1 is nil. Blocks are decoded before
// the node tree, so every block a node can name already exists.
func (de *graphDecoder) bbAt(i int) (*BasicBlock, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(de.blocks) {
		return nil, de.fail("block reference %d out of range", i)
	}
	return de.blocks[i], nil
}

func (de *graphDecoder) block() (*BasicBlock, error) {
	d := de.d
	bb := &BasicBlock{ID: d.Int()}
	if n := d.Len(2); n > 0 { // a guard term is >= 2 bytes
		bb.Guard = make([]GuardTerm, n)
		for i := range bb.Guard {
			cond, err := de.varAt(d.Int())
			if err != nil {
				return nil, err
			}
			bb.Guard[i] = GuardTerm{Cond: cond, Value: d.Bool()}
		}
	}
	if n := d.Len(8); n > 0 { // an op is >= 8 bytes
		bb.Ops = make([]*Op, n)
		for i := range bb.Ops {
			op, err := de.op(bb)
			if err != nil {
				return nil, err
			}
			bb.Ops[i] = op
		}
	}
	return bb, nil
}

func (de *graphDecoder) op(bb *BasicBlock) (*Op, error) {
	d := de.d
	op := &Op{ID: d.Int(), Kind: OpKind(d.Int()), Bin: ir.BinOp(d.Int()), Un: ir.UnOp(d.Int()), BB: bb}
	var err error
	if op.Dst, err = de.varAt(d.Int()); err != nil {
		return nil, err
	}
	if op.Arr, err = de.varAt(d.Int()); err != nil {
		return nil, err
	}
	op.UnsignedOps = d.Bool()
	if n := d.Len(4); n > 0 { // an operand is >= 4 bytes
		op.Args = make([]Operand, n)
		for i := range op.Args {
			a := &op.Args[i]
			a.IsConst, a.Const = d.Bool(), d.Int64()
			v := d.Int()
			if a.Typ, err = ir.GetType(d); err != nil {
				return nil, err
			}
			if a.IsConst {
				continue
			}
			if a.Var, err = de.varAt(v); err != nil {
				return nil, err
			}
			if a.Var == nil {
				return nil, de.fail("variable operand without variable")
			}
		}
	}
	return op, nil
}

// checkOpIDs requires the op IDs to be exactly 0..nextOp-1, as Lower
// assigns them: the midend indexes its tables by op ID.
func (de *graphDecoder) checkOpIDs(g *Graph) error {
	if n := g.OpCount(); g.nextOp != n {
		return de.fail("next op ID %d, but %d ops", g.nextOp, n)
	}
	seen := make([]bool, g.nextOp)
	for _, bb := range g.Blocks {
		for _, op := range bb.Ops {
			if op.ID < 0 || op.ID >= g.nextOp {
				return de.fail("op ID %d out of range", op.ID)
			}
			if seen[op.ID] {
				return de.fail("op ID %d repeated", op.ID)
			}
			seen[op.ID] = true
		}
	}
	return nil
}

// seq reads a region's node list. depth bounds the recursion: a forged
// payload of deeply nested regions must fail, not overflow the stack.
func (de *graphDecoder) seq(depth int) (*Seq, error) {
	if depth > wire.MaxDepth {
		return nil, de.fail("nesting deeper than %d", wire.MaxDepth)
	}
	s := &Seq{Nodes: make([]Node, de.d.Len(2))} // a node is >= 2 bytes (kind + one field)
	for i := range s.Nodes {
		n, err := de.node(depth)
		if err != nil {
			return nil, err
		}
		s.Nodes[i] = n
	}
	return s, nil
}

func (de *graphDecoder) node(depth int) (Node, error) {
	d := de.d
	switch kind := d.Int(); kind {
	case nodeSeq:
		return de.seq(depth + 1)
	case nodeBB:
		bb, err := de.bbAt(d.Int())
		if err != nil {
			return nil, err
		}
		if bb == nil {
			return nil, de.fail("BB node without block")
		}
		return &BBNode{BB: bb}, nil
	case nodeIf:
		cond, err := de.varAt(d.Int())
		if err != nil {
			return nil, err
		}
		n := &IfNode{Cond: cond}
		if n.Then, err = de.seq(depth + 1); err != nil {
			return nil, err
		}
		if d.Bool() {
			if n.Else, err = de.seq(depth + 1); err != nil {
				return nil, err
			}
		}
		return n, nil
	case nodeLoop:
		n := &LoopNode{Label: d.String()}
		var err error
		if n.Cond, err = de.varAt(d.Int()); err != nil {
			return nil, err
		}
		if n.InitBB, err = de.bbAt(d.Int()); err != nil {
			return nil, err
		}
		if n.CondBB, err = de.bbAt(d.Int()); err != nil {
			return nil, err
		}
		if n.Body, err = de.seq(depth + 1); err != nil {
			return nil, err
		}
		return n, nil
	default:
		return nil, de.fail("unknown node kind %d", kind)
	}
}
