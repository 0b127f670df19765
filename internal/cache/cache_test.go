package cache_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkgo/internal/cache"
)

// payloadFor builds a distinguishable artifact payload for a key.
func payloadFor(key string) []byte {
	return append([]byte("payload:"+key+":"), bytes.Repeat([]byte{0xab}, 64)...)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	want := payloadFor("key-1")
	if err := s.Put("frontend", "key-1", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("frontend", "key-1")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v; want hit", ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip: got %q want %q", got, want)
	}
}

func TestMissOnAbsentKey(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.Get("frontend", "no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("hit on absent key")
	}
}

// TestVersionedInvalidation pins the invalidation contract: artifacts
// written under one schema version are invisible to a store opened at
// another version on the same root, in both directions.
func TestVersionedInvalidation(t *testing.T) {
	root := t.TempDir()
	v1, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put("point", "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	v2, err := cache.Open(root, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := v2.Get("point", "k"); err != nil || ok {
		t.Fatalf("v2 store sees v1 artifact: ok=%v err=%v", ok, err)
	}
	if err := v2.Put("point", "k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := v1.Get("point", "k"); err != nil || !ok || string(got) != "old" {
		t.Fatalf("v1 artifact disturbed: ok=%v err=%v got=%q", ok, err, got)
	}
}

// TestKindsAreDisjoint checks that the same key under different kinds
// addresses different artifacts.
func TestKindsAreDisjoint(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("frontend", "k", []byte("fe")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("point", "k"); ok {
		t.Fatal("kind 'point' served kind 'frontend' artifact")
	}
}

// artifactFiles lists every non-temp regular file under root.
func artifactFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && !strings.HasPrefix(filepath.Base(p), ".tmp-") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestHeaderMismatchIsMiss corrupts a stored artifact's location by
// writing a different key's content there, and checks the header check
// turns it into a miss rather than silently aliasing.
func TestHeaderMismatchIsMiss(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "a", payloadFor("a")); err != nil {
		t.Fatal(err)
	}
	// Find the stored file and copy it over where key "b" would live:
	// a filename-hash collision in miniature.
	files := artifactFiles(t, root)
	if len(files) != 1 {
		t.Fatalf("expected 1 stored file, found %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "b", payloadFor("b")); err != nil {
		t.Fatal(err)
	}
	for _, f := range artifactFiles(t, root) {
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok, err := s.Get("point", "b"); err != nil || ok {
		t.Fatalf("aliased artifact served: ok=%v err=%v got=%q", ok, err, got)
	}
	if got, ok, err := s.Get("point", "a"); err != nil || !ok || !bytes.Equal(got, payloadFor("a")) {
		t.Fatalf("original artifact lost: ok=%v err=%v", ok, err)
	}
}

// TestCorruptPayloadIsError pins the streaming-hash verification: a
// payload whose bytes no longer match the digest written at Put time
// must surface as an error — the caller counts it and recomputes — not
// as a hit on damaged data and not as a silent miss.
func TestCorruptPayloadIsError(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("midend", "k", payloadFor("k")); err != nil {
		t.Fatal(err)
	}
	files := artifactFiles(t, root)
	if len(files) != 1 {
		t.Fatalf("expected 1 stored file, found %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a payload bit
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("midend", "k"); err == nil {
		t.Fatalf("corrupt payload served: ok=%v", ok)
	}
	// Truncation mangles the framing itself: also an error, not a hit.
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("midend", "k"); err == nil {
		t.Fatalf("truncated artifact served: ok=%v", ok)
	}
}

// age back-dates the most recently written artifact file under root by
// d, so GC ordering is deterministic regardless of filesystem timestamp
// granularity. Call it right after the Put it should apply to.
func age(t *testing.T, root string, d time.Duration) {
	t.Helper()
	var newest string
	var newestTime time.Time
	for _, p := range artifactFiles(t, root) {
		info, err := os.Stat(p)
		if err != nil {
			continue
		}
		if newest == "" || info.ModTime().After(newestTime) {
			newest, newestTime = p, info.ModTime()
		}
	}
	if newest == "" {
		t.Fatal("artifact file not found")
	}
	old := time.Now().Add(-d)
	if err := os.Chtimes(newest, old, old); err != nil {
		t.Fatal(err)
	}
}

// TestGCEvictsOldestFirst: over-budget caches shed artifacts in mtime
// order, oldest first, and stop as soon as they fit.
func TestGCEvictsOldestFirst(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for i, key := range []string{"old", "mid", "new"} {
		if err := s.Put("point", key, payloadFor("x")); err != nil {
			t.Fatal(err)
		}
		age(t, root, time.Duration(3-i)*time.Hour)
		if size == 0 {
			st, err := s.GC(1 << 40) // measure one artifact's size
			if err != nil {
				t.Fatal(err)
			}
			size = st.ScannedBytes
		}
	}
	st, err := s.GC(2 * size)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScannedFiles != 3 || st.RemovedFiles != 1 || st.RemainingBytes > 2*size {
		t.Fatalf("GC stat: %+v (artifact size %d)", st, size)
	}
	if _, ok, _ := s.Get("point", "old"); ok {
		t.Fatal("oldest artifact survived GC")
	}
	for _, key := range []string{"mid", "new"} {
		if _, ok, err := s.Get("point", key); err != nil || !ok {
			t.Fatalf("recent artifact %q evicted: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestGCZeroBudgetEmpties: GC(0) clears the cache entirely; a negative
// budget is rejected.
func TestGCZeroBudgetEmpties(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if err := s.Put("point", key, payloadFor(key)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedFiles != 2 || st.RemainingBytes != 0 {
		t.Fatalf("GC(0) stat: %+v", st)
	}
	if _, err := s.GC(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestGCIsExtensionAgnostic pins the regression where GC's walk only
// saw one file extension: artifacts written by retired formats (".gob"
// files, or any other suffix) share the cache directory and must count
// toward the byte budget and be evictable, or a format migration leaves
// unaccounted garbage that -cache-max-bytes never reclaims. Temp files
// a concurrent Put is assembling stay exempt.
func TestGCIsExtensionAgnostic(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "live", payloadFor("live")); err != nil {
		t.Fatal(err)
	}
	// A stale artifact from the retired gob format, and one with no
	// extension at all — both must be scanned and evicted.
	legacyDir := filepath.Join(s.Root(), "point", "ab")
	if err := os.MkdirAll(legacyDir, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(legacyDir, strings.Repeat("ab", 32)+".gob")
	if err := os.WriteFile(legacy, bytes.Repeat([]byte{1}, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(legacyDir, "stray")
	if err := os.WriteFile(bare, bytes.Repeat([]byte{2}, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	// An in-flight temp file must stay invisible to GC.
	tmp := filepath.Join(legacyDir, ".tmp-12345")
	if err := os.WriteFile(tmp, bytes.Repeat([]byte{3}, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScannedFiles != 3 {
		t.Fatalf("GC scanned %d files, want 3 (legacy extensions must be visible): %+v", st.ScannedFiles, st)
	}
	st, err = s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedFiles != 3 || st.RemainingBytes != 0 {
		t.Fatalf("GC(0) stat: %+v (legacy extensions must be evictable)", st)
	}
	for _, p := range []string{legacy, bare} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("legacy file %s survived GC(0)", filepath.Base(p))
		}
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Errorf("in-flight temp file evicted: %v", err)
	}
}

// TestGCReclaimsRetiredSchemas: artifacts stranded under an old schema
// version share the base directory, so a GC through the current store
// must see and reclaim them — that is where version bumps leave garbage.
func TestGCReclaimsRetiredSchemas(t *testing.T) {
	root := t.TempDir()
	old, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put("point", "stale", payloadFor("stale")); err != nil {
		t.Fatal(err)
	}
	age(t, root, time.Hour)
	cur, err := cache.Open(root, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Put("point", "live", payloadFor("live")); err != nil {
		t.Fatal(err)
	}
	probe, err := cur.GC(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if probe.ScannedFiles != 2 {
		t.Fatalf("GC scanned %d files across schemas, want 2", probe.ScannedFiles)
	}
	st, err := cur.GC(probe.ScannedBytes / 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedFiles != 1 {
		t.Fatalf("GC stat: %+v", st)
	}
	if _, ok, _ := old.Get("point", "stale"); ok {
		t.Fatal("retired-schema artifact survived")
	}
	if _, ok, err := cur.Get("point", "live"); err != nil || !ok {
		t.Fatalf("live artifact evicted: ok=%v err=%v", ok, err)
	}
}

// TestGetRefreshesRecency: a Get must bump the artifact's timestamp so
// hot artifacts survive GC even when they were written first.
func TestGetRefreshesRecency(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "hot", payloadFor("hot")); err != nil {
		t.Fatal(err)
	}
	age(t, root, 2*time.Hour)
	if err := s.Put("point", "cold", payloadFor("cold")); err != nil {
		t.Fatal(err)
	}
	age(t, root, time.Hour)
	// "hot" is older on disk, but a read refreshes it past "cold".
	if _, ok, err := s.Get("point", "hot"); err != nil || !ok {
		t.Fatal("hot artifact missing before GC")
	}
	probe, err := s.GC(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(probe.ScannedBytes / 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedFiles != 1 {
		t.Fatalf("GC stat: %+v", st)
	}
	if _, ok, _ := s.Get("point", "cold"); ok {
		t.Fatal("cold artifact survived over the recently read one")
	}
	if _, ok, err := s.Get("point", "hot"); err != nil || !ok {
		t.Fatal("recently read artifact evicted")
	}
}

// TestConcurrentPutGet races writers and readers on a small key set; the
// atomic-rename protocol must never expose a torn or empty artifact.
func TestConcurrentPutGet(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(w+i)%len(keys)]
				want := payloadFor(k)
				if err := s.Put("point", k, want); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get("point", k)
				if err != nil {
					t.Error(err)
					return
				}
				if ok && !bytes.Equal(got, want) {
					t.Errorf("key %s served %q", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGCConcurrentWithReadersAndWriter overlaps eviction with readers
// (whose Gets refresh mtimes) and a concurrent writer minting new keys:
// the store's invariants under GC are (1) a read never observes a torn
// or aliased artifact — it either hits with the exact payload written
// under that key or misses cleanly — and (2) once the dust settles,
// eviction order followed access recency, so the survivors are the
// most-recently-used keys. Run under -race.
func TestGCConcurrentWithReadersAndWriter(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	const seeded = 16
	seedKey := func(i int) string { return fmt.Sprintf("seed-%02d", i) }
	for i := 0; i < seeded; i++ {
		if err := s.Put("point", seedKey(i), payloadFor(seedKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	probe, err := s.GC(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	perFile := probe.ScannedBytes / int64(probe.ScannedFiles)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Readers: Get must never error (a torn file would fail the hash) and
	// a hit must carry exactly the payload written under the key.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := seedKey((r*5 + i) % seeded)
				got, ok, err := s.Get("point", k)
				if err != nil {
					t.Errorf("reader: Get(%s) during GC: %v", k, err)
					return
				}
				if ok && !bytes.Equal(got, payloadFor(k)) {
					t.Errorf("reader: Get(%s) served aliased payload %q", k, got)
					return
				}
			}
		}(r)
	}
	// Writer: keeps minting fresh keys while GC evicts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("fresh-%04d", i)
			if err := s.Put("point", k, payloadFor(k)); err != nil {
				t.Errorf("writer: Put(%s) during GC: %v", k, err)
				return
			}
		}
	}()
	// GC: repeatedly squeeze the directory to roughly half the seeds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(perFile * seeded / 2); err != nil {
				t.Errorf("concurrent GC: %v", err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesced MRU check: rebuild a known key set, age everything, touch
	// a subset via Get, then squeeze to a budget that only fits the
	// touched keys — they, and only they, must survive.
	const total, keep = 10, 3
	key := func(i int) string { return fmt.Sprintf("mru-%02d", i) }
	if _, err := s.GC(0); err != nil { // start clean
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := s.Put("point", key(i), payloadFor(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	age(t, root, time.Hour)
	for i := total - keep; i < total; i++ {
		if _, ok, err := s.Get("point", key(i)); err != nil || !ok {
			t.Fatalf("touch %s: ok=%t err=%v", key(i), ok, err)
		}
	}
	if _, err := s.GC(perFile*keep + perFile/2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		_, ok, err := s.Get("point", key(i))
		if err != nil {
			t.Fatal(err)
		}
		if wantSurvive := i >= total-keep; ok != wantSurvive {
			t.Errorf("key %s: survived=%t, want %t (survivors must be the most-recently-used)",
				key(i), ok, wantSurvive)
		}
	}
}

// TestGCPerKindCounters: the GC report attributes scanned and evicted
// bytes to the artifact kind each file lives under, and the per-kind
// rows sum exactly to the aggregate counters.
func TestGCPerKindCounters(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"frontend", "midend", "backend", "point"}
	for i, kind := range kinds {
		for j := 0; j <= i; j++ { // 1 frontend, 2 midend, 3 backend, 4 point
			if err := s.Put(kind, fmt.Sprintf("k%d", j), payloadFor("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := s.GC(0) // empty the cache: everything is both scanned and removed
	if err != nil {
		t.Fatal(err)
	}
	if st.ScannedFiles != 10 || st.RemovedFiles != 10 {
		t.Fatalf("GC stat: %+v", st)
	}
	if len(st.Kinds) != len(kinds) {
		t.Fatalf("per-kind rows: %+v", st.Kinds)
	}
	var names []string
	var scannedFiles, removedFiles int
	var scannedBytes, removedBytes int64
	for _, k := range st.Kinds {
		names = append(names, k.Kind)
		scannedFiles += k.ScannedFiles
		removedFiles += k.RemovedFiles
		scannedBytes += k.ScannedBytes
		removedBytes += k.RemovedBytes
		if k.ScannedFiles != k.RemovedFiles || k.ScannedBytes != k.RemovedBytes {
			t.Errorf("kind %s: scanned %d/%d, removed %d/%d — GC(0) must evict everything",
				k.Kind, k.ScannedFiles, k.ScannedBytes, k.RemovedFiles, k.RemovedBytes)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("per-kind rows not sorted: %v", names)
	}
	if scannedFiles != st.ScannedFiles || removedFiles != st.RemovedFiles ||
		scannedBytes != st.ScannedBytes || removedBytes != st.RemovedBytes {
		t.Errorf("per-kind rows do not sum to the aggregate: %+v", st)
	}
	byKind := map[string]cache.KindGC{}
	for _, k := range st.Kinds {
		byKind[k.Kind] = k
	}
	for i, kind := range kinds {
		if got := byKind[kind].ScannedFiles; got != i+1 {
			t.Errorf("kind %s: scanned %d files, want %d", kind, got, i+1)
		}
	}
}

// TestGCPartialEvictionPerKind: a budget that spares the newest files
// attributes the evictions to the kinds that actually lost artifacts.
func TestGCPartialEvictionPerKind(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("midend", "old", payloadFor("old")); err != nil {
		t.Fatal(err)
	}
	age(t, root, time.Hour)
	if err := s.Put("backend", "new", payloadFor("new")); err != nil {
		t.Fatal(err)
	}
	probe, err := s.GC(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(probe.ScannedBytes * 3 / 4) // room for one of the two
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedFiles != 1 {
		t.Fatalf("GC stat: %+v", st)
	}
	for _, k := range st.Kinds {
		switch k.Kind {
		case "midend":
			if k.RemovedFiles != 1 {
				t.Errorf("oldest (midend) artifact survived: %+v", k)
			}
		case "backend":
			if k.RemovedFiles != 0 {
				t.Errorf("newest (backend) artifact evicted: %+v", k)
			}
		}
	}
}

// TestGCReclaimsStaleTempFiles: a crashed writer's orphaned ".tmp-"
// file must be reclaimed once it is older than the staleness threshold,
// while a fresh temp file — possibly an in-flight Put on another
// process — stays untouched. Temp files never count toward the byte
// budget, so reclaiming them cannot evict live artifacts.
func TestGCReclaimsStaleTempFiles(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "live", payloadFor("live")); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(s.Root(), "point", "ab")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".tmp-stale")
	if err := os.WriteFile(stale, bytes.Repeat([]byte{1}, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, ".tmp-fresh")
	if err := os.WriteFile(fresh, bytes.Repeat([]byte{2}, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.TmpRemovedFiles != 1 || st.TmpRemovedBytes != 100 {
		t.Fatalf("GC stat: %+v, want 1 stale temp file / 100 bytes reclaimed", st)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file reclaimed: %v", err)
	}
	if st.RemovedFiles != 0 {
		t.Errorf("live artifacts evicted under an ample budget: %+v", st)
	}
	if _, ok, err := s.Get("point", "live"); err != nil || !ok {
		t.Fatalf("live artifact lost: ok=%v err=%v", ok, err)
	}
}

// TestStoreStatsCounters: header mismatches and corrupted payloads must
// be counted, not just absorbed — /v1/stats surfaces these so an
// operator can tell a cold cache from a rotting one.
func TestStoreStatsCounters(t *testing.T) {
	root := t.TempDir()
	s, err := cache.Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.HeaderMisses != 0 || st.Corruptions != 0 {
		t.Fatalf("fresh store stats: %+v", st)
	}
	// Header miss: key "b" resolves to a file holding key "a"'s record.
	if err := s.Put("point", "a", payloadFor("a")); err != nil {
		t.Fatal(err)
	}
	files := artifactFiles(t, root)
	if len(files) != 1 {
		t.Fatalf("expected 1 stored file, found %d", len(files))
	}
	record, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "b", payloadFor("b")); err != nil {
		t.Fatal(err)
	}
	for _, f := range artifactFiles(t, root) {
		if err := os.WriteFile(f, record, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Get("point", "b"); ok || err != nil {
		t.Fatalf("aliased Get = ok %v err %v, want clean miss", ok, err)
	}
	if st := s.Stats(); st.HeaderMisses == 0 {
		t.Fatalf("header miss not counted: %+v", st)
	}
	// Corruption: flip a payload bit under key "a".
	record[len(record)-1] ^= 0xff
	for _, f := range artifactFiles(t, root) {
		if err := os.WriteFile(f, record, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get("point", "a"); err == nil {
		t.Fatal("corrupt payload served")
	}
	if st := s.Stats(); st.Corruptions == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
}

// storeFiles lists the regular files under root, relative to it.
func storeFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		out = append(out, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestPutIntoFreshStore: the first put of a kind creates the kind and
// fan-out directories, and every put leaves exactly its artifact behind,
// no temp file.
func TestPutIntoFreshStore(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := s.Put("midend", k, payloadFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	files := storeFiles(t, s.Root())
	if len(files) != len(keys) {
		t.Fatalf("store holds %v, want %d artifacts", files, len(keys))
	}
	for _, f := range files {
		if !strings.HasPrefix(f, "midend"+string(filepath.Separator)) || !strings.HasSuffix(f, ".art") {
			t.Errorf("unexpected file %s", f)
		}
	}
	for _, k := range keys {
		if got, ok, err := s.Get("midend", k); err != nil || !ok || !bytes.Equal(got, payloadFor(k)) {
			t.Fatalf("Get(%s) = %q, %v, %v", k, got, ok, err)
		}
	}
}

// TestPutAfterKindDirRemoved: a put recreates the whole path when the
// kind directory was deleted underneath the store.
func TestPutAfterKindDirRemoved(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("backend", "k", payloadFor("k")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(s.Root(), "backend")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("backend", "k", payloadFor("k")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get("backend", "k"); err != nil || !ok || !bytes.Equal(got, payloadFor("k")) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	if files := storeFiles(t, s.Root()); len(files) != 1 {
		t.Fatalf("store holds %v, want one artifact", files)
	}
}

// TestFailedPutRemovesTempFile: a put whose rename fails reports the
// error and leaves no temp file behind.
func TestFailedPutRemovesTempFile(t *testing.T) {
	s, err := cache.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "k", payloadFor("k")); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, s.Root())
	if len(files) != 1 {
		t.Fatalf("store holds %v, want one artifact", files)
	}
	// A non-empty directory where the artifact goes makes the rename fail.
	art := filepath.Join(s.Root(), files[0])
	if err := os.Remove(art); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(art, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", "k", payloadFor("k")); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if entries, err := os.ReadDir(filepath.Dir(art)); err != nil || len(entries) != 1 {
		t.Fatalf("fan-out directory holds %v (%v), want only the blocking directory", entries, err)
	}
}
