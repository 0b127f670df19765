package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemRoundTrip(t *testing.T) {
	m := NewMem(0)
	if _, ok, err := m.Get("k", "a"); ok || err != nil {
		t.Fatalf("Get on empty store = ok %v err %v", ok, err)
	}
	if err := m.Put("k", "a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := m.Get("k", "a")
	if err != nil || !ok || string(data) != "payload" {
		t.Fatalf("Get = %q, %v, %v", data, ok, err)
	}
	if err := m.Delete("k", "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("k", "a"); ok {
		t.Fatal("Get after Delete = ok")
	}
}

func TestMemEvictsLRU(t *testing.T) {
	// Budget for roughly three entries; a fourth Put must evict the
	// least recently used.
	entry := func(i int) (string, []byte) {
		return fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)
	}
	k0, p0 := entry(0)
	m := NewMem(3 * entrySize(memKey("k", k0), p0))
	for i := 0; i < 3; i++ {
		k, p := entry(i)
		if err := m.Put("k", k, p); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 is now the coldest.
	if _, ok, _ := m.Get("k", "k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	k3, p3 := entry(3)
	if err := m.Put("k", k3, p3); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("k", "k1"); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok, _ := m.Get("k", k); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}

func TestMemBudgetHeld(t *testing.T) {
	budget := 10 * entrySize(memKey("k", "k00"), make([]byte, 50))
	m := NewMem(budget)
	for i := 0; i < 100; i++ {
		if err := m.Put("k", fmt.Sprintf("k%d", i), make([]byte, 50)); err != nil {
			t.Fatal(err)
		}
		if m.Bytes() > budget {
			t.Fatalf("store over budget after %d puts: %d > %d", i+1, m.Bytes(), budget)
		}
	}
	if m.Len() == 0 || m.Len() == 100 {
		t.Fatalf("Len = %d, want a bounded nonzero working set", m.Len())
	}
}

func TestMemOversizePayloadDropped(t *testing.T) {
	m := NewMem(200)
	if err := m.Put("k", "small", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("k", "big", make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("k", "big"); ok {
		t.Fatal("oversize payload was stored")
	}
	if _, ok, _ := m.Get("k", "small"); !ok {
		t.Fatal("oversize Put evicted unrelated entries")
	}
	// Replacing an existing entry with an oversize payload must not
	// leave the stale value behind.
	if err := m.Put("k", "small", make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("k", "small"); ok {
		t.Fatal("oversize replacement left the stale entry readable")
	}
}

func TestMemReplaceAdjustsUsage(t *testing.T) {
	m := NewMem(1 << 20)
	m.Put("k", "a", make([]byte, 100))
	before := m.Bytes()
	m.Put("k", "a", make([]byte, 400))
	if got, want := m.Bytes(), before+300; got != want {
		t.Fatalf("Bytes after replace = %d, want %d", got, want)
	}
	if m.Len() != 1 {
		t.Fatalf("Len after replace = %d, want 1", m.Len())
	}
}

// failStore wraps a Store, forcing Get errors (simulated corruption)
// and counting operations.
type failStore struct {
	Store
	failGet bool
	gets    atomic.Int64
	puts    atomic.Int64
}

func (f *failStore) Get(kind, key string) ([]byte, bool, error) {
	f.gets.Add(1)
	if f.failGet {
		return nil, false, errors.New("injected corruption")
	}
	return f.Store.Get(kind, key)
}

func (f *failStore) Put(kind, key string, payload []byte) error {
	f.puts.Add(1)
	return f.Store.Put(kind, key, payload)
}

func twoTiers() (*Mem, *Mem, *Tiered) {
	l1, l2 := NewMem(0), NewMem(0)
	return l1, l2, NewTiered(
		Tier{Name: "l1", Store: l1},
		Tier{Name: "l2", Store: l2},
	)
}

func TestTieredWriteThrough(t *testing.T) {
	l1, l2, tt := twoTiers()
	res, err := tt.Do("k", "a", func() ([]byte, any, error) {
		return []byte("v"), nil, nil
	})
	if err != nil || res.Tier != "" || res.Shared {
		t.Fatalf("computed Do = %+v, %v", res, err)
	}
	for name, m := range map[string]*Mem{"l1": l1, "l2": l2} {
		if _, ok, _ := m.Get("k", "a"); !ok {
			t.Fatalf("write-through skipped tier %s", name)
		}
	}
}

func TestTieredBackfill(t *testing.T) {
	l1, l2, tt := twoTiers()
	// Seed only the slow tier: a lookup must hit l2 and backfill l1.
	if err := l2.Put("k", "a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := tt.Do("k", "a", func() ([]byte, any, error) {
		t.Fatal("compute ran despite an l2 hit")
		return nil, nil, nil
	})
	if err != nil || res.Tier != "l2" || string(res.Data) != "v" {
		t.Fatalf("Do = %+v, %v", res, err)
	}
	if _, ok, _ := l1.Get("k", "a"); !ok {
		t.Fatal("hit was not backfilled into l1")
	}
	res, err = tt.Do("k", "a", func() ([]byte, any, error) {
		t.Fatal("compute ran despite an l1 hit")
		return nil, nil, nil
	})
	if err != nil || res.Tier != "l1" {
		t.Fatalf("post-backfill Do = %+v, %v", res, err)
	}
	var backfills int64
	for _, ts := range tt.TierStats() {
		backfills += ts.Backfills
	}
	if backfills != 1 {
		t.Fatalf("backfills = %d, want 1", backfills)
	}
}

func TestTieredThreeTierBackfill(t *testing.T) {
	l1, l2, l3 := NewMem(0), NewMem(0), NewMem(0)
	tt := NewTiered(
		Tier{Name: "l1", Store: l1},
		Tier{Name: "l2", Store: l2},
		Tier{Name: "l3", Store: l3},
	)
	if err := l3.Put("k", "a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := tt.Do("k", "a", func() ([]byte, any, error) {
		t.Fatal("compute ran despite an l3 hit")
		return nil, nil, nil
	})
	if err != nil || res.Tier != "l3" {
		t.Fatalf("Do = %+v, %v", res, err)
	}
	// An l3 hit must warm both faster tiers on the way up.
	if _, ok, _ := l1.Get("k", "a"); !ok {
		t.Fatal("l3 hit not backfilled into l1")
	}
	if _, ok, _ := l2.Get("k", "a"); !ok {
		t.Fatal("l3 hit not backfilled into l2")
	}
}

func TestTieredCorruptTierFallsThroughAndRepairs(t *testing.T) {
	inner1, l2 := NewMem(0), NewMem(0)
	bad := &failStore{Store: inner1, failGet: true}
	tt := NewTiered(
		Tier{Name: "l1", Store: bad},
		Tier{Name: "l2", Store: l2},
	)
	if err := l2.Put("k", "a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := tt.Do("k", "a", func() ([]byte, any, error) {
		t.Fatal("compute ran despite an l2 hit")
		return nil, nil, nil
	})
	if err != nil || res.Tier != "l2" || string(res.Data) != "v" {
		t.Fatalf("Do through corrupt tier = %+v, %v", res, err)
	}
	// The backfill must have repaired the corrupt tier's copy.
	if _, ok, _ := inner1.Get("k", "a"); !ok {
		t.Fatal("corrupt tier was not repaired by backfill")
	}
	var errs int64
	for _, ts := range tt.TierStats() {
		errs += ts.Errors
	}
	if errs == 0 {
		t.Fatal("corrupt tier error was not counted")
	}
}

func TestTieredSingleFlight(t *testing.T) {
	_, _, tt := twoTiers()
	const callers = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	shared := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := tt.Do("k", "hot", func() ([]byte, any, error) {
				computes.Add(1)
				return []byte("v"), nil, nil
			})
			if err != nil || string(res.Data) != "v" {
				t.Errorf("Do = %+v, %v", res, err)
			}
			shared[i] = res.Shared || res.Tier != ""
		}(i)
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	nshared := 0
	for _, s := range shared {
		if s {
			nshared++
		}
	}
	if nshared != callers-1 {
		t.Fatalf("%d callers shared/hit, want %d", nshared, callers-1)
	}
}

func TestTieredErrorsNotSticky(t *testing.T) {
	_, _, tt := twoTiers()
	boom := errors.New("boom")
	if _, err := tt.Do("k", "a", func() ([]byte, any, error) {
		return nil, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first Do error = %v, want boom", err)
	}
	res, err := tt.Do("k", "a", func() ([]byte, any, error) {
		return []byte("ok"), nil, nil
	})
	if err != nil || string(res.Data) != "ok" {
		t.Fatalf("retry after error = %+v, %v (error was sticky)", res, err)
	}
}

func TestTieredUnstorableObjShared(t *testing.T) {
	l1, _, tt := twoTiers()
	type big struct{ v int }
	res, err := tt.Do("k", "a", func() ([]byte, any, error) {
		return nil, &big{v: 7}, nil
	})
	if err != nil || res.Obj.(*big).v != 7 {
		t.Fatalf("Do = %+v, %v", res, err)
	}
	// nil data: nothing may have been stored in any tier.
	if _, ok, _ := l1.Get("k", "a"); ok {
		t.Fatal("unstorable value was written to a tier")
	}
}
