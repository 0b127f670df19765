package blob

import (
	"sync"
	"sync/atomic"

	"sparkgo/internal/obs"
)

// Tier is one named layer of a Tiered store.
type Tier struct {
	Name  string
	Store Store
}

// TierStat is one tier's cumulative counters. Hits/Misses/Errors count
// Get outcomes against this tier (an erroring Get — corruption, a dead
// remote — degrades to the next tier rather than failing the lookup);
// Backfills counts payloads copied INTO this tier from a slower one;
// Puts/PutErrors count write-through and backfill writes.
type TierStat struct {
	Name      string
	Hits      int64
	Misses    int64
	Errors    int64
	Backfills int64
	Puts      int64
	PutErrors int64
}

type tierCounters struct {
	hits, misses, errors, backfills, puts, putErrors atomic.Int64
}

// DoResult is the outcome of a Do lookup. Exactly one of three shapes:
// a tier hit (Tier names the serving tier, Data holds the payload), a
// compute (Tier empty; Data holds the encoding or nil when the value
// is unstorable, Obj the computed value), or a share (Shared true: the
// caller joined another caller's in-flight lookup and got its result).
type DoResult struct {
	Data   []byte
	Obj    any
	Tier   string
	Shared bool
}

type flight struct {
	done chan struct{}
	res  DoResult
	err  error
}

// Tiered composes tiers, fastest first, behind one Store plus a
// single-flight Do. Lookups read through fastest-first and a hit
// backfills every faster tier, so the next lookup stops earlier; writes
// go through to every tier. Tier failures never fail an
// operation that another tier (or a compute) can still serve — they
// are counted in TierStats instead.
type Tiered struct {
	tiers []Tier
	stats []*tierCounters

	// Obs, when set before first use, receives one TypeTier event per
	// tier operation (hit/miss/error/backfill/put/put_error).
	Obs *obs.Bus

	mu      sync.Mutex
	flights map[string]*flight
}

func (t *Tiered) observe(tier, op, kind string, err error) {
	if !t.Obs.Active() {
		return
	}
	ev := obs.Event{Type: obs.TypeTier, Tier: tier, Op: op, Kind: kind}
	if err != nil {
		ev.Err = err.Error()
	}
	t.Obs.Publish(ev)
}

// NewTiered builds a tiered store over tiers ordered fastest first.
func NewTiered(tiers ...Tier) *Tiered {
	stats := make([]*tierCounters, len(tiers))
	for i := range stats {
		stats[i] = &tierCounters{}
	}
	return &Tiered{tiers: tiers, stats: stats, flights: map[string]*flight{}}
}

// Do returns the payload for (kind, key), computing it at most once
// across concurrent callers: the first caller (the leader) walks the
// tiers and, on a full miss, runs compute; callers arriving while that
// is in flight block and share the leader's result with Shared set.
//
// compute returns the payload encoding, an optional in-memory value
// handed to sharers via DoResult.Obj (the leader's callers get the
// real object instead of re-decoding), and an error. An error is
// propagated to every waiting caller and nothing is stored — the
// flight is always dropped on completion, so failures are never
// sticky and the next caller retries. compute may return (nil, obj,
// nil) for values that cannot be encoded: the result is shared with
// concurrent callers but no tier stores it.
func (t *Tiered) Do(kind, key string, compute func() (data []byte, obj any, err error)) (DoResult, error) {
	fk := memKey(kind, key)
	t.mu.Lock()
	if f, ok := t.flights[fk]; ok {
		t.mu.Unlock()
		<-f.done
		if f.err != nil {
			return DoResult{}, f.err
		}
		res := f.res
		res.Shared = true
		return res, nil
	}
	f := &flight{done: make(chan struct{})}
	t.flights[fk] = f
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.flights, fk)
		t.mu.Unlock()
		close(f.done)
	}()

	if data, i := t.lookup(kind, key); i >= 0 {
		f.res = DoResult{Data: data, Tier: t.tiers[i].Name}
		return f.res, nil
	}
	data, obj, err := compute()
	if err != nil {
		f.err = err
		return DoResult{}, err
	}
	f.res = DoResult{Data: data, Obj: obj}
	if data != nil {
		t.putThrough(kind, key, data)
	}
	return f.res, nil
}

// lookup walks the tiers fastest-first, backfilling a hit into every
// faster tier. A tier Get error is counted and degrades to
// the next tier — a corrupted payload at one tier is repaired by the
// backfill (or write-through) that follows. Returns (-1) on full miss.
func (t *Tiered) lookup(kind, key string) ([]byte, int) {
	for i := range t.tiers {
		data, ok, err := t.tiers[i].Store.Get(kind, key)
		if err != nil {
			t.stats[i].errors.Add(1)
			t.observe(t.tiers[i].Name, "error", kind, err)
			continue
		}
		if !ok {
			t.stats[i].misses.Add(1)
			t.observe(t.tiers[i].Name, "miss", kind, nil)
			continue
		}
		t.stats[i].hits.Add(1)
		t.observe(t.tiers[i].Name, "hit", kind, nil)
		for j := 0; j < i; j++ {
			if err := t.tiers[j].Store.Put(kind, key, data); err != nil {
				t.stats[j].putErrors.Add(1)
				t.observe(t.tiers[j].Name, "put_error", kind, err)
			} else {
				t.stats[j].backfills.Add(1)
				t.observe(t.tiers[j].Name, "backfill", kind, nil)
			}
		}
		return data, i
	}
	return nil, -1
}

// putThrough writes to every tier, counting failures and returning
// the first one (later tiers are still attempted).
func (t *Tiered) putThrough(kind, key string, payload []byte) error {
	var firstErr error
	for i := range t.tiers {
		if err := t.tiers[i].Store.Put(kind, key, payload); err != nil {
			t.stats[i].putErrors.Add(1)
			t.observe(t.tiers[i].Name, "put_error", kind, err)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			t.stats[i].puts.Add(1)
			t.observe(t.tiers[i].Name, "put", kind, nil)
		}
	}
	return firstErr
}

// Get reads through the tiers without computing: the plain Store view,
// used by the daemon's blob API. Tier errors degrade to the next tier
// and surface only in TierStats.
func (t *Tiered) Get(kind, key string) ([]byte, bool, error) {
	data, i := t.lookup(kind, key)
	return data, i >= 0, nil
}

// Put writes through to every tier.
func (t *Tiered) Put(kind, key string, payload []byte) error {
	return t.putThrough(kind, key, payload)
}

// Delete removes the payload from every tier, returning the first
// error after attempting all of them.
func (t *Tiered) Delete(kind, key string) error {
	var firstErr error
	for i := range t.tiers {
		if err := t.tiers[i].Store.Delete(kind, key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// TierStats snapshots the per-tier counters in tier order.
func (t *Tiered) TierStats() []TierStat {
	out := make([]TierStat, len(t.tiers))
	for i, c := range t.stats {
		out[i] = TierStat{
			Name:      t.tiers[i].Name,
			Hits:      c.hits.Load(),
			Misses:    c.misses.Load(),
			Errors:    c.errors.Load(),
			Backfills: c.backfills.Load(),
			Puts:      c.puts.Load(),
			PutErrors: c.putErrors.Load(),
		}
	}
	return out
}
