// Package blob is the one caching abstraction under the exploration
// engine: a small hash-verified payload store addressed by (kind, key),
// with tiers from process memory to a remote fleet composed behind a
// single read-through interface.
//
// A Store holds opaque payload bytes. Integrity and schema versioning
// are the implementations' job — the disk store (internal/cache) frames
// every file with a hashed header, the remote store verifies an
// X-Blob-Sha256 digest over the HTTP body — so a payload that comes
// back at all is the payload that was stored. Callers layer their own
// framing inside the payload (the engine's stage blobs).
//
// Tiered composes stores fastest-first (memory → disk → remote): reads
// go through and backfill every faster tier, writes go to every tier,
// and concurrent same-key work collapses into one flight — implemented
// once here instead of once per artifact layer.
package blob

// Store is a payload store addressed by (kind, key). Kind partitions
// the namespace (one per artifact layer); key is any stable identifier,
// in practice a content-derived stage hash.
//
// Get reports a missing payload as (nil, false, nil); an error means
// the store held something for the key but could not return it intact
// (corruption, I/O failure) — callers treat that as a miss but may
// count it. Put atomically replaces any previous payload. Delete of a
// missing payload is a no-op, not an error. Payloads returned by Get
// are read-only: implementations may alias internal buffers.
type Store interface {
	Get(kind, key string) ([]byte, bool, error)
	Put(kind, key string, payload []byte) error
	Delete(kind, key string) error
}
