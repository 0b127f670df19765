// Package bind performs register binding: variable lifetime analysis over
// the schedule and left-edge register allocation, so registers whose
// lifetimes do not overlap share physical storage. The paper's §3.1.2
// describes the front half of this ("a variable life-time analysis pass
// determines which variables are actually mapped to registers"); the
// left-edge packing is the classical HLS register-sharing step, reported
// as the area saving the microprocessor regime usually declines to take
// (registers are cheap relative to the wiring a merged register's muxes
// cost at these cycle times).
package bind

import (
	"fmt"
	"sort"

	"sparkgo/internal/ir"
	"sparkgo/internal/sched"
)

// Lifetime is the live interval of a register-class variable in states:
// [Def, LastUse] inclusive. For loop-carried variables the interval covers
// the whole loop span (conservative).
type Lifetime struct {
	Var  *ir.Var
	Def  int
	Last int
}

// Overlaps reports interval intersection.
func (l Lifetime) Overlaps(o Lifetime) bool {
	return l.Def <= o.Last && o.Def <= l.Last
}

// Analysis is the result of lifetime analysis.
type Analysis struct {
	Lifetimes []Lifetime
	// Wires lists the wire-variables (no storage).
	Wires []*ir.Var
}

// Analyze computes register lifetimes from a schedule. Globals are
// excluded: they are architectural state with whole-design lifetime and
// never share.
func Analyze(res *sched.Plan) *Analysis {
	defState := map[*ir.Var]int{}
	lastState := map[*ir.Var]int{}
	seen := map[*ir.Var]bool{}
	touch := func(v *ir.Var, s int, isDef bool) {
		if !seen[v] {
			seen[v] = true
			defState[v] = s
			lastState[v] = s
		}
		if isDef && s < defState[v] {
			defState[v] = s
		}
		if s > lastState[v] {
			lastState[v] = s
		}
	}
	for s, list := range res.OpOrder {
		for _, op := range list {
			for _, v := range op.Reads() {
				touch(v, s, false)
			}
			for _, gt := range op.BB.Guard {
				touch(gt.Cond, s, false)
			}
			if w := op.Writes(); w != nil {
				touch(w, s, true)
			}
		}
	}
	for _, tr := range res.Transitions {
		if tr.Cond != nil {
			touch(tr.Cond, tr.From, false)
		}
	}
	// Loop-carried: a variable live across a backward transition spans
	// the whole loop region; widen to [min reachable state, max].
	reentrant := res.ReentrantStates
	an := &Analysis{}
	for v := range seen {
		if v.IsGlobal {
			continue
		}
		if res.VarClass[v] == sched.Wire {
			an.Wires = append(an.Wires, v)
			continue
		}
		lo, hi := defState[v], lastState[v]
		for s := range reentrant {
			if s >= lo && s <= hi {
				// Conservatively extend across the whole re-entrant
				// span.
				for t := range reentrant {
					if t < lo {
						lo = t
					}
					if t > hi {
						hi = t
					}
				}
				break
			}
		}
		an.Lifetimes = append(an.Lifetimes, Lifetime{Var: v, Def: lo, Last: hi})
	}
	sort.Slice(an.Lifetimes, func(i, j int) bool {
		if an.Lifetimes[i].Def != an.Lifetimes[j].Def {
			return an.Lifetimes[i].Def < an.Lifetimes[j].Def
		}
		return an.Lifetimes[i].Var.Name < an.Lifetimes[j].Var.Name
	})
	sort.Slice(an.Wires, func(i, j int) bool { return an.Wires[i].Name < an.Wires[j].Name })
	return an
}

// Sharing is a register allocation: variables grouped into physical
// registers.
type Sharing struct {
	// Groups[i] lists the variables sharing physical register i. Only
	// same-width variables share (merging widths would waste bits and
	// complicate muxing).
	Groups [][]Lifetime
}

// Registers returns the number of physical registers allocated.
func (s *Sharing) Registers() int { return len(s.Groups) }

// LeftEdge runs the classical left-edge algorithm per bit-width class:
// lifetimes sorted by start, greedily packed into the first register
// whose current occupant ends before this one starts.
func LeftEdge(an *Analysis) *Sharing {
	byWidth := map[int][]Lifetime{}
	for _, lt := range an.Lifetimes {
		w := lt.Var.Type.Width()
		byWidth[w] = append(byWidth[w], lt)
	}
	sh := &Sharing{}
	var widths []int
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	for _, w := range widths {
		lts := byWidth[w]
		sort.Slice(lts, func(i, j int) bool {
			if lts[i].Def != lts[j].Def {
				return lts[i].Def < lts[j].Def
			}
			return lts[i].Var.Name < lts[j].Var.Name
		})
		var regEnd []int // last state occupied per register in this class
		var regIdx []int // index into sh.Groups
		for _, lt := range lts {
			placed := false
			for k := range regEnd {
				if regEnd[k] < lt.Def {
					sh.Groups[regIdx[k]] = append(sh.Groups[regIdx[k]], lt)
					regEnd[k] = lt.Last
					placed = true
					break
				}
			}
			if !placed {
				sh.Groups = append(sh.Groups, []Lifetime{lt})
				regEnd = append(regEnd, lt.Last)
				regIdx = append(regIdx, len(sh.Groups)-1)
			}
		}
	}
	return sh
}

// Report summarizes binding for the experiment tables.
type Report struct {
	WireVars      int // §3.1.2 wire-variables: no storage
	RegisterVars  int // register-class variables before sharing
	SharedRegs    int // physical registers after left-edge packing
	SharingFactor float64
}

// Summarize runs the full binding analysis on a schedule.
func Summarize(res *sched.Plan) Report {
	an := Analyze(res)
	sh := LeftEdge(an)
	r := Report{
		WireVars:     len(an.Wires),
		RegisterVars: len(an.Lifetimes),
		SharedRegs:   sh.Registers(),
	}
	if r.SharedRegs > 0 {
		r.SharingFactor = float64(r.RegisterVars) / float64(r.SharedRegs)
	}
	return r
}

func (r Report) String() string {
	return fmt.Sprintf("wires=%d regs=%d shared=%d (x%.2f)",
		r.WireVars, r.RegisterVars, r.SharedRegs, r.SharingFactor)
}
