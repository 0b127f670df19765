// Package cache is a versioned binary artifact store on disk: the
// persistence layer under the exploration engine's memoization. Artifacts
// are addressed by (kind, key) where the key is any stable identifier —
// in practice the stage keys of internal/core, which already hash the
// artifact content, the consumed options, and a per-stage version.
//
// On-disk layout:
//
//	<root>/<schema-version>/<kind>/<kk>/<sha256(key)>.art
//
// where <kk> is the first two hex digits of the hashed key (a fan-out
// shard so directories stay small under large sweeps). Every file is a
// small wire-framed header — format tag, schema version, kind, key, and
// the SHA-256 of the payload — followed by the raw payload bytes. Get
// verifies the header fields and streams the hash over the payload
// before handing it back, so a format bump, a schema version bump, or a
// (vanishingly unlikely) filename-hash collision all read as a clean
// miss, while a corrupted payload reads as an error — never as a stale,
// aliased, or silently damaged artifact. Verification costs one hash
// pass over the stored bytes: no decode, no re-encode.
//
// Writes go through a temp file plus rename, so concurrent writers —
// including separate processes sharing one cache directory — can race on
// a key without ever exposing a torn file. Losing the race wastes one
// redundant write of identical content, nothing more.
//
// The store tracks recency by file mtime: a successful Get refreshes the
// artifact's timestamp, so mtime order approximates LRU order and GC can
// evict cold artifacts first when the directory outgrows a byte budget.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sparkgo/internal/wire"
)

// FormatVersion is the file-format version carried in every artifact's
// format tag. Bump it when the header or framing changes; older files
// then miss instead of mis-decoding.
const FormatVersion = 2

// fileTag is the wire format tag at the head of every artifact file.
var fileTag = fmt.Sprintf("artcache/%d", FormatVersion)

// ext is the artifact file extension. GC deliberately does not key on
// it — any regular file under the cache root except in-flight temp
// files is subject to eviction and size accounting.
const ext = ".art"

// Store is a handle on one cache directory at one schema version. The
// zero value is unusable; use Open.
type Store struct {
	base    string // directory handed to Open; shared by every schema version
	root    string // <base>/<schema-version>
	version string

	// headerMisses counts files whose header parsed but did not match
	// this store's identity (format tag, schema version, kind, or key)
	// and were therefore reported as clean misses — the signature of a
	// schema bump or a shared directory polluted by another version.
	headerMisses atomic.Int64
	// corruptions counts files whose header would not parse or whose
	// payload failed its hash check — damaged artifacts, reported as
	// errors.
	corruptions atomic.Int64
}

// Stats is the store's cumulative diagnostic counters: how often Get
// found a file it could not serve, split by cause. A nonzero
// HeaderMisses on a freshly bumped schema is expected churn; nonzero
// Corruptions is never expected and points at storage trouble.
type Stats struct {
	HeaderMisses int64
	Corruptions  int64
}

// Stats snapshots the store's diagnostic counters.
func (s *Store) Stats() Stats {
	return Stats{
		HeaderMisses: s.headerMisses.Load(),
		Corruptions:  s.corruptions.Load(),
	}
}

// Open prepares a store rooted at dir for artifacts of the given schema
// version, creating directories as needed. Different versions share a
// root but never each other's artifacts.
func Open(dir, version string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if version == "" {
		return nil, fmt.Errorf("cache: empty version")
	}
	root := filepath.Join(dir, sanitize(version))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{base: dir, root: root, version: version}, nil
}

// Root returns the store's versioned root directory.
func (s *Store) Root() string { return s.root }

// path maps (kind, key) to the artifact file.
func (s *Store) path(kind, key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.root, sanitize(kind), name[:2], name+ext)
}

// Get returns the payload stored under (kind, key), reporting whether
// it was found. A missing file, a version or format mismatch, or a key
// collision is a miss (nil, false, nil); an unparseable header or a
// payload whose streamed SHA-256 disagrees with the stored digest is an
// error. A hit refreshes the file's mtime, so GC's oldest-first
// eviction order tracks access recency, not just write order.
func (s *Store) Get(kind, key string) ([]byte, bool, error) {
	path := s.path(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	d := wire.NewDecoder(data)
	tag := d.String()
	version := d.String()
	k := d.String()
	ky := d.String()
	sum := d.Raw(sha256.Size)
	payload := d.Bytes()
	if err := d.Finish(); err != nil {
		s.corruptions.Add(1)
		return nil, false, fmt.Errorf("cache: %s/%s: bad header: %w", kind, key, err)
	}
	if tag != fileTag || version != s.version || k != kind || ky != key {
		s.headerMisses.Add(1)
		return nil, false, nil
	}
	if got := sha256.Sum256(payload); string(got[:]) != string(sum) {
		s.corruptions.Add(1)
		return nil, false, fmt.Errorf("cache: %s/%s: payload hash mismatch (corrupt artifact)", kind, key)
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort recency marker for GC
	return payload, true, nil
}

// Put stores payload under (kind, key), atomically replacing any
// previous artifact. The payload's SHA-256 is computed here and stored
// in the header, so every later Get verifies integrity by hashing
// alone.
func (s *Store) Put(kind, key string, payload []byte) error {
	path := s.path(kind, key)
	dir := filepath.Dir(path)
	// One mkdir for the fan-out directory; only a store whose kind
	// directory is missing too pays for MkdirAll's walk.
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("cache: %w", err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	sum := sha256.Sum256(payload)
	e := wire.NewEncoder(64 + len(kind) + len(key) + len(payload))
	e.Tag(fileTag)
	e.String(s.version)
	e.String(kind)
	e.String(key)
	e.Raw(sum[:])
	e.Bytes(payload)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	renamed := false
	defer func() {
		if !renamed {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(e.Data()); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %s/%s: write: %w", kind, key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	renamed = true
	return nil
}

// Delete removes the artifact stored under (kind, key); deleting a
// missing artifact is a no-op.
func (s *Store) Delete(kind, key string) error {
	if err := os.Remove(s.path(kind, key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// KindGC is the per-kind slice of a GC pass: how much of one artifact
// kind (frontend, midend, backend, point) was scanned and evicted, so
// eviction pressure is attributable to a cache layer instead of
// disappearing into an aggregate. Files outside the store's
// <schema>/<kind>/<hh>/<file> layout report under kind "other".
type KindGC struct {
	Kind         string
	ScannedFiles int
	ScannedBytes int64
	RemovedFiles int
	RemovedBytes int64
}

// GCStat summarizes one GC pass over the cache directory.
type GCStat struct {
	ScannedFiles   int   // artifact files found before eviction
	ScannedBytes   int64 // their total size
	RemovedFiles   int
	RemovedBytes   int64
	RemainingBytes int64 // ScannedBytes - RemovedBytes
	// TmpRemovedFiles/TmpRemovedBytes count orphaned temp files — left
	// by writers that crashed mid-Put — reclaimed by this pass. They
	// are outside the Scanned/Removed accounting: temp files never
	// count toward the byte budget.
	TmpRemovedFiles int
	TmpRemovedBytes int64
	// Kinds is the per-kind breakdown of the counters above, sorted by
	// kind name. Kind totals sum to the aggregate counters.
	Kinds []KindGC
}

// tmpMaxAge is the staleness threshold for reclaiming temp files
// during GC: a ".tmp-" file older than this was abandoned by a crashed
// writer (a live Put renames within milliseconds), so it is removed
// rather than skipped. Generous enough that no plausible in-flight
// write is ever at risk.
const tmpMaxAge = time.Hour

// GC evicts artifacts oldest-mtime-first until the cache directory's
// total size is at or under maxBytes (0 empties it). Because Get
// refreshes mtimes, eviction order approximates LRU; because it walks
// the whole base directory — every schema version, not just this
// store's — artifacts stranded under retired schema versions are
// reclaimed first, which is exactly where a version bump leaves
// garbage. The walk is extension-agnostic: every regular file counts
// toward the budget and is evictable, whatever its suffix — including
// artifacts written by retired formats. Temp files a concurrent Put
// may still be assembling (".tmp-" prefixed) are skipped while fresh,
// but reclaimed once older than tmpMaxAge — a crashed writer's orphans
// would otherwise leak forever, invisible to the byte budget. A file
// that vanishes mid-walk — a concurrent GC or writer won the race —
// is skipped, not an error.
func (s *Store) GC(maxBytes int64) (GCStat, error) {
	if maxBytes < 0 {
		return GCStat{}, fmt.Errorf("cache: negative GC budget %d", maxBytes)
	}
	type entry struct {
		path  string
		kind  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var stat GCStat
	perKind := map[string]*KindGC{}
	kindOf := func(path string) string {
		// Artifacts live at <base>/<schema>/<kind>/<hh>/<file>; a file
		// anywhere else is still evicted but reported as "other".
		rel, err := filepath.Rel(s.base, path)
		if err != nil {
			return "other"
		}
		segs := strings.Split(rel, string(filepath.Separator))
		if len(segs) != 4 {
			return "other"
		}
		return segs[1]
	}
	bucket := func(kind string) *KindGC {
		k := perKind[kind]
		if k == nil {
			k = &KindGC{Kind: kind}
			perKind[kind] = k
		}
		return k
	}
	err := filepath.WalkDir(s.base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			if time.Since(info.ModTime()) < tmpMaxAge {
				return nil // plausibly a live Put; leave it alone
			}
			if err := os.Remove(path); err == nil {
				stat.TmpRemovedFiles++
				stat.TmpRemovedBytes += info.Size()
			}
			return nil
		}
		kind := kindOf(path)
		files = append(files, entry{path: path, kind: kind, size: info.Size(), mtime: info.ModTime()})
		stat.ScannedFiles++
		stat.ScannedBytes += info.Size()
		k := bucket(kind)
		k.ScannedFiles++
		k.ScannedBytes += info.Size()
		return nil
	})
	finish := func() GCStat {
		for _, k := range perKind {
			stat.Kinds = append(stat.Kinds, *k)
		}
		sort.Slice(stat.Kinds, func(i, j int) bool { return stat.Kinds[i].Kind < stat.Kinds[j].Kind })
		return stat
	}
	if err != nil {
		return finish(), fmt.Errorf("cache: gc: %w", err)
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path // stable order under equal stamps
	})
	remaining := stat.ScannedBytes
	for _, f := range files {
		if remaining <= maxBytes {
			break
		}
		if err := os.Remove(f.path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			stat.RemainingBytes = remaining
			return finish(), fmt.Errorf("cache: gc: %w", err)
		}
		remaining -= f.size
		stat.RemovedFiles++
		stat.RemovedBytes += f.size
		k := bucket(f.kind)
		k.RemovedFiles++
		k.RemovedBytes += f.size
	}
	stat.RemainingBytes = remaining
	return finish(), nil
}

// sanitize keeps path segments portable: anything outside
// [a-zA-Z0-9._-] becomes '_'.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
