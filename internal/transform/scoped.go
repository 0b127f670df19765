package transform

// scoped is a map whose changes inside a scope can be undone, the way a
// value-numbering table is scoped to the dominator tree. push opens a
// scope; pop rolls back every set and delete made since. A forward pass
// keeps one scoped table per function walk and opens a scope for each
// branch and loop body instead of copying the table there. Outside any
// scope nothing is logged.
type scoped[K comparable, V any] struct {
	m     map[K]V
	log   []change[K, V]
	marks []int // where each open scope's changes start in log
}

// change is one logged write: the key and what it held before.
type change[K comparable, V any] struct {
	k   K
	v   V
	had bool
}

func newScoped[K comparable, V any]() scoped[K, V] {
	return scoped[K, V]{m: map[K]V{}}
}

func (s *scoped[K, V]) get(k K) (V, bool) {
	v, ok := s.m[k]
	return v, ok
}

func (s *scoped[K, V]) set(k K, v V) {
	s.record(k)
	s.m[k] = v
}

func (s *scoped[K, V]) del(k K) {
	if _, ok := s.m[k]; ok {
		s.record(k)
		delete(s.m, k)
	}
}

func (s *scoped[K, V]) record(k K) {
	if len(s.marks) > 0 {
		old, had := s.m[k]
		s.log = append(s.log, change[K, V]{k, old, had})
	}
}

func (s *scoped[K, V]) push() { s.marks = append(s.marks, len(s.log)) }

// touched returns the changes made in the innermost open scope, oldest
// first; a key written twice appears twice. The slice is valid until
// the next write or pop.
func (s *scoped[K, V]) touched() []change[K, V] {
	return s.log[s.marks[len(s.marks)-1]:]
}

// pop closes the innermost scope, restoring every key it changed.
func (s *scoped[K, V]) pop() {
	mark := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	for i := len(s.log) - 1; i >= mark; i-- {
		c := s.log[i]
		if c.had {
			s.m[c.k] = c.v
		} else {
			delete(s.m, c.k)
		}
	}
	clear(s.log[mark:])
	s.log = s.log[:mark]
}
