package core_test

import (
	"errors"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
)

// Codec benchmarks over the artifacts of one real staged-flow run. Run
// with -benchmem: the wire codecs are the artifact hot path (every disk
// hit and miss crosses them), and the allocation counts are as
// load-bearing as the ns. The fingerprint benchmarks measure the
// verification side: revival integrity is one hash pass over the stored
// bytes, so Fingerprint-vs-Decode is the ratio the streaming-hash design
// banks on.
//
//	go test ./internal/core -bench 'Wire|Fingerprint' -benchmem

// benchKind is one artifact layer with its codec and an encoding to
// decode/hash.
type benchKind struct {
	name    string
	wireEnc func() ([]byte, error)
	wireDec func([]byte) error
	enc     []byte // wire encoding, for decode + fingerprint
}

func benchKinds(b *testing.B) []benchKind {
	b.Helper()
	prog := ild.Program(16)
	opt := core.Options{Preset: core.MicroprocessorBlock}
	fa, err := core.Frontend(prog, opt.FrontendOptions())
	if err != nil {
		b.Fatal(err)
	}
	fa.Materialize()
	ma, err := core.Midend(fa, opt.MidendOptions())
	if err != nil {
		b.Fatal(err)
	}
	ba, err := core.Backend(ma, opt.BackendOptions())
	if err != nil {
		b.Fatal(err)
	}
	kinds := []benchKind{
		{
			name:    "program",
			wireEnc: func() ([]byte, error) { return ir.EncodeProgram(fa.Program) },
			wireDec: func(d []byte) error { _, err := ir.DecodeProgram(d); return err },
		},
		{
			// The whole midend artifact: the program before lowering and
			// the plan. Decoding it lowers the program again.
			name: "midend",
			wireEnc: func() ([]byte, error) {
				if enc := ma.Materialize(); enc != nil {
					return enc, nil
				}
				return nil, errors.New("midend artifact does not encode")
			},
			wireDec: func(d []byte) error { _, err := core.ReviveMidendArtifact(d, 0).Sched(); return err },
		},
		{
			name:    "module",
			wireEnc: func() ([]byte, error) { return rtl.EncodeModule(ba.Module) },
			wireDec: func(d []byte) error { _, err := rtl.DecodeModule(d); return err },
		},
	}
	for i := range kinds {
		k := &kinds[i]
		if k.enc, err = k.wireEnc(); err != nil {
			b.Fatalf("%s: wire encode: %v", k.name, err)
		}
	}
	return kinds
}

func BenchmarkWireEncode(b *testing.B) {
	for _, k := range benchKinds(b) {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(k.enc)))
			for i := 0; i < b.N; i++ {
				if _, err := k.wireEnc(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, k := range benchKinds(b) {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(k.enc)))
			for i := 0; i < b.N; i++ {
				if err := k.wireDec(k.enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint measures revival verification: one SHA-256 pass
// over the wire encoding. Compare against BenchmarkWireDecode on the
// same kind for the verify-vs-decode ratio.
func BenchmarkFingerprint(b *testing.B) {
	for _, k := range benchKinds(b) {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(k.enc)))
			for i := 0; i < b.N; i++ {
				if fp := ir.FingerprintBytes(k.enc); fp == "" {
					b.Fatal("empty fingerprint")
				}
			}
		})
	}
}
