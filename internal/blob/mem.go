package blob

import (
	"container/list"
	"sync"
)

// DefaultMemBytes is the memory tier's byte budget when none is given:
// large enough to hold every artifact of a sizeable sweep, small enough
// to leave the heap to synthesis.
const DefaultMemBytes = 256 << 20

// memOverhead approximates the per-entry bookkeeping cost (map bucket,
// list element, headers) charged against the budget alongside the
// payload and key bytes, so a flood of tiny entries cannot blow past
// the budget on overhead alone.
const memOverhead = 128

// Mem is a bounded in-memory LRU store: the L1 tier. Entries are
// evicted least-recently-used-first once the byte budget is exceeded;
// a payload larger than the whole budget is simply not stored. All
// methods are safe for concurrent use.
type Mem struct {
	mu    sync.Mutex
	max   int64
	used  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type memEntry struct {
	key     string
	payload []byte
}

// NewMem returns a memory store bounded to maxBytes (<= 0 selects
// DefaultMemBytes).
func NewMem(maxBytes int64) *Mem {
	if maxBytes <= 0 {
		maxBytes = DefaultMemBytes
	}
	return &Mem{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

func memKey(kind, key string) string { return kind + "\x00" + key }

func entrySize(key string, payload []byte) int64 {
	return int64(len(key) + len(payload) + memOverhead)
}

// Get returns the stored payload and refreshes its recency. The slice
// aliases the store's copy; callers must not mutate it.
func (m *Mem) Get(kind, key string) ([]byte, bool, error) {
	k := memKey(kind, key)
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[k]
	if !ok {
		return nil, false, nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memEntry).payload, true, nil
}

// Put stores payload under (kind, key), replacing any previous entry
// and evicting cold entries until the store fits its budget. Payloads
// that alone exceed the budget are dropped silently — the caller's
// slower tiers still hold them.
func (m *Mem) Put(kind, key string, payload []byte) error {
	k := memKey(kind, key)
	size := entrySize(k, payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	if size > m.max {
		if el, ok := m.items[k]; ok {
			m.removeLocked(el)
		}
		return nil
	}
	if el, ok := m.items[k]; ok {
		en := el.Value.(*memEntry)
		m.used += size - entrySize(k, en.payload)
		en.payload = payload
		m.ll.MoveToFront(el)
	} else {
		m.items[k] = m.ll.PushFront(&memEntry{key: k, payload: payload})
		m.used += size
	}
	for m.used > m.max {
		back := m.ll.Back()
		if back == nil {
			break
		}
		m.removeLocked(back)
	}
	return nil
}

// Delete removes the entry if present.
func (m *Mem) Delete(kind, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[memKey(kind, key)]; ok {
		m.removeLocked(el)
	}
	return nil
}

// Len reports the number of live entries.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Bytes reports the budget-charged size of the live entries.
func (m *Mem) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

func (m *Mem) removeLocked(el *list.Element) {
	en := el.Value.(*memEntry)
	m.ll.Remove(el)
	delete(m.items, en.key)
	m.used -= entrySize(en.key, en.payload)
}
