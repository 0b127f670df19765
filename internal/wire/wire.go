// Package wire is the hand-rolled deterministic binary codec under
// every artifact serialization in the staged flow. The layout is
// canonical by construction: fields are written in a fixed order,
// integers as varints (zigzag for signed values), floats as fixed
// 8-byte little-endian IEEE bits, and strings/byte slices behind uvarint
// length prefixes — no reflection, no type descriptors, no map
// iteration, so encoding the same value always produces the same bytes.
// That property is what lets an artifact's content fingerprint be a
// plain SHA-256 over its wire bytes, and disk revival verify by hashing
// the stored payload without decoding it.
//
// The Decoder carries a sticky first error: every read after a failure
// returns a zero value, so codec code reads a whole struct straight
// through and checks Err once at the end. Length prefixes are validated
// against the bytes actually remaining (scaled by a caller-supplied
// minimum element size), so a malformed or adversarial input can never
// drive an over-allocation — the worst it can do is return an error.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MaxDepth bounds the nesting of the recursive structures a codec walks
// (expression and statement trees, HTG node trees). A forged payload of
// deeply nested nodes costs a few bytes per level, so without a bound a
// small input could overflow the decoding goroutine's stack, a fatal
// error recover cannot catch. Each codec enforces the bound in both
// directions, so every encoding it writes also decodes: a design nested
// deeper is unencodable, and the caches compute it instead of storing
// it. Real designs sit far below the bound; a 4,000-deep expression
// chain has room to spare.
const MaxDepth = 1 << 14

// Encoder appends wire primitives to a growing buffer. The zero value
// is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with an initial capacity hint, for
// callers that know roughly how large the encoding will be.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Data returns the encoded bytes. The slice aliases the encoder's
// buffer; further writes may invalidate it.
func (e *Encoder) Data() []byte { return e.buf }

// Len reports the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 writes a signed value as a zigzag varint.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int is Int64 for the int-typed fields that dominate the codecs.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool writes one byte, 0 or 1.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 writes fixed 8-byte little-endian IEEE 754 bits — bit-exact
// round-trips, NaN payloads and signed zeros included.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String writes a uvarint length prefix followed by the string bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes writes a uvarint length prefix followed by the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends bytes with no length prefix — fixed-size fields (hashes)
// whose length both sides know.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Ints writes a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Tag writes a format tag (a versioned string like "irprog/1") the
// decoder checks before reading anything else.
func (e *Encoder) Tag(s string) { e.String(s) }

// Decoder reads wire primitives from a byte slice with a sticky first
// error: after any failure every read returns the zero value and Err
// reports the original cause.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data. The decoder reads subslices
// of data without copying; callers that mutate data afterwards own the
// consequences.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err reports the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the bytes not yet consumed.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// failf records the first error with the offset it happened at.
func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint. The single-byte case — almost every
// length prefix and small field in practice — is inlined; multi-byte
// values fall through to encoding/binary.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.data) {
		if b := d.data[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.failf("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a zigzag varint, with the same single-byte fast path as
// Uvarint (one zigzag byte covers -64..63, which spans the IDs, kinds,
// and state numbers that dominate artifact encodings).
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.data) {
		if b := d.data[d.off]; b < 0x80 {
			d.off++
			v := int64(b >> 1)
			if b&1 != 0 {
				v = ^v
			}
			return v
		}
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.failf("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int is Int64 narrowed to int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool reads one byte and rejects anything but 0 or 1 — a strict read,
// so bit-flipped inputs fail instead of aliasing onto a valid value.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.failf("truncated bool")
		return false
	}
	b := d.data[d.off]
	if b > 1 {
		d.failf("bad bool byte %d", b)
		return false
	}
	d.off++
	return b == 1
}

// Float64 reads fixed 8-byte little-endian IEEE 754 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.failf("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

// take consumes n bytes, returning a subslice of the input.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.failf("truncated %s: need %d bytes, have %d", what, n, d.Remaining())
		return nil
	}
	out := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.failf("truncated string: need %d bytes, have %d", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n), "string"))
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// decoder's input — zero copy, which is what keeps shallow artifact
// decodes (a header plus a payload subslice) nearly free.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.failf("truncated bytes: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	return d.take(int(n), "bytes")
}

// Raw reads exactly n bytes with no length prefix (fixed-size fields).
func (d *Decoder) Raw(n int) []byte { return d.take(n, "raw field") }

// Len reads a collection length prefix and validates it against the
// bytes remaining: every element must occupy at least minBytesPerElem
// bytes on the wire (pass 1 for elements whose smallest encoding is one
// byte), so a length-inflated input errors here instead of driving a
// huge allocation in the caller's make().
func (d *Decoder) Len(minBytesPerElem int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minBytesPerElem < 1 {
		minBytesPerElem = 1
	}
	if n > uint64(d.Remaining()/minBytesPerElem) {
		d.failf("length %d exceeds remaining input (%d bytes, >=%d per element)",
			n, d.Remaining(), minBytesPerElem)
		return 0
	}
	return int(n)
}

// Ints reads a length-prefixed []int, returning nil for an empty list.
func (d *Decoder) Ints() []int {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.Int())
	}
	return out
}

// Tag reads a format tag and fails unless it matches want exactly.
func (d *Decoder) Tag(want string) {
	got := d.String()
	if d.err == nil && got != want {
		d.failf("format tag %q, want %q", got, want)
	}
}

// Finish reports the decoder's error state, failing on trailing bytes:
// a well-formed artifact is consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		d.failf("%d trailing bytes", d.Remaining())
	}
	return d.err
}
