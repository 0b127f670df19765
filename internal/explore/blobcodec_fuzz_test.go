package explore

import (
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
)

// Fuzz targets for the engine's blob decoders. Blob decoding is pure
// parsing — integrity is the cache layer's streamed hash — so the only
// contract under arbitrary input is the decoder family's usual one: an
// error or a value, never a panic, allocation bounded by the bytes
// present. Seeds are real encodings plus truncations, bit flips, and an
// inflated length prefix.

func addBlobSeeds(f *testing.F, seed []byte) {
	f.Helper()
	f.Add(seed)
	if len(seed) > 4 {
		f.Add(seed[:len(seed)/2])
		flip := append([]byte(nil), seed...)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Add(append(append([]byte(nil), seed...), 0xde, 0xad))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, seed...))
}

func FuzzDecodeFrontendBlob(f *testing.F) {
	blob := frontendBlob{Program: []byte("not-a-real-program-encoding"), Fingerprint: "fp", Rounds: 2}
	addBlobSeeds(f, blob.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeFrontendBlob(data)
		if err != nil {
			return
		}
		b.encode()
	})
}

func FuzzDecodeMidendBlob(f *testing.F) {
	blob := midendBlob{Schedule: []byte("schedule-bytes"), Fingerprint: "fp", Cycles: 9}
	addBlobSeeds(f, blob.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeMidendBlob(data)
		if err != nil {
			return
		}
		b.encode()
	})
}

// FuzzDecodeBackendBlob fuzzes the backend blob decoder the engine
// revives with — core.ReviveBackendArtifact, since the blob is core's
// backend encoding as-is — then the lazy netlist decode behind Mod.
func FuzzDecodeBackendBlob(f *testing.F) {
	res, err := core.Synthesize(ild.Program(2), core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	addBlobSeeds(f, (&core.BackendArtifact{Module: res.Module, Stats: res.Stats}).Materialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		ba, err := core.ReviveBackendArtifact(data)
		if err != nil {
			return
		}
		// Only a panic fails the target: a malformed netlist must come
		// back as an error.
		_, _ = ba.Mod()
	})
}

func FuzzDecodePoint(f *testing.F) {
	pt := Point{
		Config: Config{
			Source: "ild", N: 8, Preset: 1, NoUnroll: true,
			MaxUnroll: 4, Passes: []string{"cse", "constprop"},
		},
		Cycles: 12, Latency: 14, CritPath: 3.25, Area: 100.5,
		Muxes: 4, FUs: 3, Rounds: 3,
	}
	addBlobSeeds(f, encodePoint(&pt))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePoint(data)
		if err != nil {
			return
		}
		encodePoint(p)
	})
}
