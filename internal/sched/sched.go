// Package sched assigns HTG operations to control steps (FSM states) under
// a resource allocation and a clock-period constraint, implementing the two
// scheduling regimes the paper contrasts:
//
//   - ModeChain ("microprocessor block", §3/§6): the whole loop-free HTG is
//     flattened; operations from many basic blocks pack into the same cycle
//     with chaining across conditional boundaries (§3.1), validated along
//     every chaining trail; conditional commits become multiplexer logic.
//     With unlimited resources and no clock bound this yields the paper's
//     single-cycle architecture (Fig 15).
//
//   - ModeSequential ("classical HLS baseline", Fig 1a): one basic block at
//     a time; conditionals become FSM branches, loops become FSM cycles; no
//     code motion across conditional boundaries. This is the architecture
//     the paper argues is inadequate for microprocessor blocks.
//
// Both regimes are list scheduling over one dependence graph and share
// one loop (list.go): ops become ready as their last predecessor is
// placed, and each state is filled in passes in (priority desc, ID asc)
// order under the same chaining, clock and resource checks. The regimes
// differ only in the region each run fills — the whole graph, or one
// basic block — and in what a conditional commit costs.
//
// The scheduler also classifies every variable as a register (value
// crosses a cycle boundary or is architectural state) or a wire-variable
// (produced and consumed within one cycle, §3.1.2) — the classification
// package rtl uses to build the datapath.
package sched

import (
	"fmt"

	"sparkgo/internal/delay"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// Mode selects the scheduling regime.
type Mode int

const (
	// ModeChain flattens the HTG and chains across conditionals.
	ModeChain Mode = iota
	// ModeSequential schedules one basic block at a time with FSM
	// control flow (the classical baseline).
	ModeSequential
)

func (m Mode) String() string {
	if m == ModeChain {
		return "chain"
	}
	return "sequential"
}

// Class is the resource class of an operation.
type Class int

const (
	ClassALU Class = iota // add, sub, neg
	ClassMul
	ClassDiv
	ClassLogic // and, or, xor, not, logical ops
	ClassShift
	ClassCmp
	ClassMem  // array port
	ClassFree // copies, muxes: steering logic, not a shared resource
)

var classNames = [...]string{"alu", "mul", "div", "logic", "shift", "cmp", "mem", "free"}

func (c Class) String() string { return classNames[c] }

// ClassOf returns the resource class of an operation.
func ClassOf(op *htg.Op) Class {
	switch op.Kind {
	case htg.OpBin:
		switch op.Bin {
		case ir.OpAdd, ir.OpSub:
			return ClassALU
		case ir.OpMul:
			return ClassMul
		case ir.OpDiv, ir.OpRem:
			return ClassDiv
		case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpLAnd, ir.OpLOr:
			return ClassLogic
		case ir.OpShl, ir.OpShr:
			return ClassShift
		default: // comparisons
			return ClassCmp
		}
	case htg.OpUn:
		if op.Un == ir.OpNeg {
			return ClassALU
		}
		return ClassLogic
	case htg.OpLoad, htg.OpStore:
		return ClassMem
	}
	return ClassFree
}

// Resources is a per-cycle resource allocation.
type Resources struct {
	Unlimited bool
	Counts    map[Class]int
}

// Unlimited resources: the paper's premise for microprocessor blocks.
func Unlimited() Resources { return Resources{Unlimited: true} }

// Classical returns a small fixed allocation representative of classical
// resource-constrained HLS: one of each expensive unit, two logic units,
// and two memory ports.
func Classical() Resources {
	return Resources{Counts: map[Class]int{
		ClassALU: 1, ClassMul: 1, ClassDiv: 1,
		ClassLogic: 2, ClassShift: 1, ClassCmp: 1, ClassMem: 2,
	}}
}

// available returns the per-cycle budget of a class.
func (r Resources) available(c Class) int {
	if r.Unlimited || c == ClassFree {
		return 1 << 30
	}
	n, ok := r.Counts[c]
	if !ok {
		return 0
	}
	return n
}

// Transition is one FSM edge, evaluated at the end of state From:
// if Cond is nil the edge is unconditional; otherwise taken when Cond's
// value equals CondValue. Transitions are tried in order; the first match
// wins. A To of -1 means "done".
type Transition struct {
	From      int
	Cond      *ir.Var
	CondValue bool
	To        int
}

// VarClass distinguishes registers from wire-variables.
type VarClass int

const (
	// Register: holds its value across cycle boundaries.
	Register VarClass = iota
	// Wire: produced and consumed combinationally within one cycle
	// (paper §3.1.2's wire-variable).
	Wire
)

// Plan is what scheduling decides: each state's ops, the FSM and the
// register/wire split — everything binding and netlist construction
// read, and all the midend artifact persists.
type Plan struct {
	G    *htg.Graph
	Mode Mode

	NumStates int
	// OpOrder lists each state's ops in dependence-topological order
	// (program order restricted to the state), ready for netlist
	// construction.
	OpOrder     [][]*htg.Op
	Transitions []Transition
	VarClass    map[*ir.Var]VarClass
	// ReentrantStates marks states inside loop regions (visited more
	// than once per activation).
	ReentrantStates map[int]bool
}

// Result is a fresh schedule: the plan plus what the scheduler reports
// about it on the way. Only the plan outlives the scheduling run.
// OpState, Arrival and Finish are indexed by op ID.
type Result struct {
	*Plan

	// OpState is each op's state, or -1 while it is unplaced.
	OpState []int
	// Arrival is each op's within-cycle arrival time (gu); Finish adds
	// the op's own delay.
	Arrival []float64
	Finish  []float64
	// StateCritPath is the longest combinational path per state
	// including register setup.
	StateCritPath []float64
	// ClockViolations counts ops that could not fit the clock period
	// even alone in a cycle.
	ClockViolations int
}

// Config bundles scheduling parameters.
type Config struct {
	Mode      Mode
	Resources Resources
	Model     *delay.Model
	// DisableChaining forces every dependence to cross a register (the
	// A4 ablation: one dataflow level per cycle).
	DisableChaining bool
}

// DefaultConfig is the paper's microprocessor-block configuration.
func DefaultConfig() Config {
	return Config{
		Mode:      ModeChain,
		Resources: Unlimited(),
		Model:     delay.Default(),
	}
}

// Schedule schedules the graph.
func Schedule(g *htg.Graph, cfg Config) (*Result, error) {
	if cfg.Model == nil {
		cfg.Model = delay.Default()
	}
	if cfg.Mode != ModeChain && cfg.Mode != ModeSequential {
		return nil, fmt.Errorf("sched: unknown mode %d", cfg.Mode)
	}
	if cfg.Mode == ModeChain && g.HasLoops() {
		return nil, fmt.Errorf("sched: chain mode requires a loop-free graph " +
			"(unroll loops first, or use sequential mode)")
	}
	s := newScheduler(g, cfg)
	run := s.chain
	if cfg.Mode == ModeSequential {
		run = s.sequential
	}
	if err := run(); err != nil {
		return nil, err
	}
	res := s.res
	res.NumStates = len(res.OpOrder)
	for i := range res.StateCritPath {
		res.StateCritPath[i] += cfg.Model.RegisterSetup()
	}
	classifyVars(res.Plan)
	return res, nil
}

// opDelay returns the propagation delay of one op.
func opDelay(m *delay.Model, op *htg.Op) float64 {
	t := resultType(op)
	switch op.Kind {
	case htg.OpBin:
		return m.BinOpDelay(op.Bin, t)
	case htg.OpUn:
		return m.UnOpDelay(op.Un, t)
	case htg.OpMux:
		return m.MuxDelay(2)
	case htg.OpCopy:
		return m.CastDelay()
	case htg.OpLoad:
		if op.Args[0].IsConst {
			return 0 // static element select: wiring
		}
		return m.ArrayReadDelay(op.Arr.Type.Len)
	case htg.OpStore:
		if op.Args[0].IsConst {
			return 0
		}
		// Dynamic store: index decoder ahead of the element registers.
		return m.MuxDelay(op.Arr.Type.Len)
	}
	return 0
}

func resultType(op *htg.Op) *ir.Type {
	if op.Dst != nil {
		return op.Dst.Type
	}
	if op.Kind == htg.OpStore {
		return op.Arr.Type.Elem
	}
	return ir.U1
}
