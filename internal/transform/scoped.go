package transform

import "sparkgo/internal/ir"

// undo is the change log behind a scoped table, the way a value-numbering
// table is scoped to the dominator tree. push opens a scope; pop rolls
// back every change made since. A forward pass keeps one scoped table per
// function walk and opens a scope for each branch and loop body instead
// of copying the table there. Outside any scope nothing is logged.
type undo[K any, V any] struct {
	log   []change[K, V]
	marks []int // where each open scope's changes start in log
}

// change is one logged write: the key and what it held before.
type change[K any, V any] struct {
	k   K
	v   V
	had bool
}

// record logs that k, which held old if had, is about to change.
func (u *undo[K, V]) record(k K, old V, had bool) {
	if len(u.marks) > 0 {
		u.log = append(u.log, change[K, V]{k, old, had})
	}
}

func (u *undo[K, V]) push() { u.marks = append(u.marks, len(u.log)) }

// touched returns the changes made in the innermost open scope, oldest
// first; a key written twice appears twice. The slice is valid until
// the next write or pop.
func (u *undo[K, V]) touched() []change[K, V] {
	return u.log[u.marks[len(u.marks)-1]:]
}

// pop closes the innermost scope, handing restore each change it made,
// newest first.
func (u *undo[K, V]) pop(restore func(change[K, V])) {
	mark := u.marks[len(u.marks)-1]
	u.marks = u.marks[:len(u.marks)-1]
	for i := len(u.log) - 1; i >= mark; i-- {
		restore(u.log[i])
	}
	clear(u.log[mark:])
	u.log = u.log[:mark]
}

// scoped is a map with scopes (see undo), for keys that are not
// variables.
type scoped[K comparable, V any] struct {
	m map[K]V
	undo[K, V]
}

func newScoped[K comparable, V any]() scoped[K, V] {
	return scoped[K, V]{m: map[K]V{}}
}

func (s *scoped[K, V]) get(k K) (V, bool) {
	v, ok := s.m[k]
	return v, ok
}

func (s *scoped[K, V]) set(k K, v V) {
	if len(s.marks) > 0 {
		old, had := s.m[k]
		s.record(k, old, had)
	}
	s.m[k] = v
}

// pop closes the innermost scope, restoring every key it changed.
func (s *scoped[K, V]) pop() {
	s.undo.pop(func(c change[K, V]) {
		if c.had {
			s.m[c.k] = c.v
		} else {
			delete(s.m, c.k)
		}
	})
}

// varScoped is a scoped table keyed by variable and stored by ID (see
// ir.Func.NumberVars). It also lists the variables it holds, so a walk
// over its entries costs what it holds, not the number of IDs.
type varScoped[V any] struct {
	vals []V
	pos  []int32   // by ID: 1 + the variable's index in keys, or 0
	keys []*ir.Var // the variables with an entry, in no set order
	undo[*ir.Var, V]
}

// newVarScoped returns an empty table for IDs below n; it grows for
// variables numbered later.
func newVarScoped[V any](n int) varScoped[V] {
	return varScoped[V]{vals: make([]V, n), pos: make([]int32, n)}
}

func (s *varScoped[V]) get(v *ir.Var) (V, bool) {
	if int(v.ID) < len(s.pos) && s.pos[v.ID] != 0 {
		return s.vals[v.ID], true
	}
	var zero V
	return zero, false
}

func (s *varScoped[V]) set(v *ir.Var, x V) {
	if len(s.marks) > 0 {
		old, had := s.get(v)
		s.record(v, old, had)
	}
	s.put(v, x)
}

func (s *varScoped[V]) del(v *ir.Var) {
	if old, had := s.get(v); had {
		s.record(v, old, true)
		s.remove(v)
	}
}

// dropIf deletes every entry drop accepts.
func (s *varScoped[V]) dropIf(drop func(v *ir.Var, x V) bool) {
	// Backwards, so the entry remove moves into slot i was seen already.
	for i := len(s.keys) - 1; i >= 0; i-- {
		if v := s.keys[i]; drop(v, s.vals[v.ID]) {
			s.record(v, s.vals[v.ID], true)
			s.remove(v)
		}
	}
}

// pop closes the innermost scope, restoring every key it changed.
func (s *varScoped[V]) pop() {
	s.undo.pop(func(c change[*ir.Var, V]) {
		if c.had {
			s.put(c.k, c.v)
		} else {
			s.remove(c.k)
		}
	})
}

// put stores x under v without logging.
func (s *varScoped[V]) put(v *ir.Var, x V) {
	if int(v.ID) >= len(s.pos) {
		n := max(int(v.ID)+1, 2*len(s.pos))
		s.vals = append(s.vals, make([]V, n-len(s.vals))...)
		s.pos = append(s.pos, make([]int32, n-len(s.pos))...)
	}
	s.vals[v.ID] = x
	if s.pos[v.ID] == 0 {
		s.keys = append(s.keys, v)
		s.pos[v.ID] = int32(len(s.keys))
	}
}

// remove deletes v's entry, which exists, without logging.
func (s *varScoped[V]) remove(v *ir.Var) {
	i := s.pos[v.ID] - 1
	last := s.keys[len(s.keys)-1]
	s.keys[i] = last
	s.pos[last.ID] = i + 1
	s.keys[len(s.keys)-1] = nil
	s.keys = s.keys[:len(s.keys)-1]
	s.pos[v.ID] = 0
	var zero V
	s.vals[v.ID] = zero
}

// varSet is a set of variables as a bitset over their IDs.
type varSet []uint64

// newVarSet returns an empty set for IDs below n.
func newVarSet(n int) varSet { return make(varSet, (n+63)/64) }

func (l varSet) has(v *ir.Var) bool {
	w := int(v.ID >> 6)
	return w < len(l) && l[w]&(1<<(v.ID&63)) != 0
}

func (l varSet) add(v *ir.Var)  { l[v.ID>>6] |= 1 << (v.ID & 63) }
func (l varSet) drop(v *ir.Var) { l[v.ID>>6] &^= 1 << (v.ID & 63) }

// addAll adds o to l and reports whether l grew.
func (l varSet) addAll(o varSet) bool {
	grew := uint64(0)
	for i, w := range o {
		grew |= w &^ l[i]
		l[i] |= w
	}
	return grew != 0
}

// addFirst adds the variables numbered 0..n-1.
func (l varSet) addFirst(n int) {
	full := n >> 6
	for i := range full {
		l[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		l[full] |= 1<<r - 1
	}
}

// addReads adds every variable e reads; an array element read reads
// the array variable.
func (l varSet) addReads(e ir.Expr) {
	anyRead(e, func(v *ir.Var) bool {
		l.add(v)
		return false
	})
}
