package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/htg"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/sched"
)

// Fuzz targets for every artifact decoder on the persistence path. The
// contract under arbitrary input is uniform: return an error or a value
// — never panic, never allocate proportionally to a forged length
// prefix (the wire.Len guards bound every slice make by the bytes
// actually present). A value that decodes must re-encode, and that
// encoding is a fixed point: it decodes and re-encodes to itself, so
// the encoder and decoder agree on every field of the layout. Seeds are real artifacts from the staged flow —
// the same designs the golden fingerprint file pins — plus adversarial
// mutations of each: truncations, bit flips, and inflated length
// prefixes.

// fuzzArtifacts runs the staged flow once and returns the layered
// encodings: program, midend artifact, netlist, and the backend shell.
func fuzzArtifacts(f testing.TB) (progEnc, midendEnc, modEnc, shellEnc []byte) {
	f.Helper()
	prog := ild.Program(4)
	opt := core.Options{Preset: core.MicroprocessorBlock}
	fa, err := core.Frontend(prog, opt.FrontendOptions())
	if err != nil {
		f.Fatal(err)
	}
	progEnc = fa.Materialize()
	ma, err := core.Midend(fa, opt.MidendOptions())
	if err != nil {
		f.Fatal(err)
	}
	midendEnc = ma.Materialize()
	ba, err := core.Backend(ma, opt.BackendOptions())
	if err != nil {
		f.Fatal(err)
	}
	shellEnc = ba.Materialize()
	if modEnc, err = rtl.EncodeModule(ba.Module); err != nil {
		f.Fatal(err)
	}
	return progEnc, midendEnc, modEnc, shellEnc
}

// classicalMidend returns the materialized ILD 8 classical midend
// artifact: a multi-state plan with conditional and back edges, over a
// graph that kept its loops.
func classicalMidend(f testing.TB) *core.MidendArtifact {
	f.Helper()
	opt := core.Options{Preset: core.ClassicalASIC}
	fa, err := core.Frontend(ild.Program(8), opt.FrontendOptions())
	if err != nil {
		f.Fatal(err)
	}
	ma, err := core.Midend(fa, opt.MidendOptions())
	if err != nil {
		f.Fatal(err)
	}
	if ma.Materialize() == nil {
		f.Fatal("classical midend artifact did not encode")
	}
	return ma
}

// planSeeds returns the ILD 8 classical graph and two plan encodings
// over it: the classical schedule, and the same graph scheduled
// sequentially without resource limits.
func planSeeds(f testing.TB) (*htg.Graph, [][]byte) {
	f.Helper()
	ma := classicalMidend(f)
	cfg := sched.DefaultConfig()
	cfg.Mode, cfg.Resources = sched.ModeSequential, sched.Unlimited()
	res, err := sched.Schedule(ma.Graph, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var encs [][]byte
	for _, p := range []*sched.Plan{ma.Schedule, res.Plan} {
		enc, err := sched.EncodePlan(p)
		if err != nil {
			f.Fatal(err)
		}
		encs = append(encs, enc)
	}
	return ma.Graph, encs
}

// reviveMidend decodes a midend artifact the way a cache hit does:
// revive the shell, then decode the program, lower it and attach the
// plan (Sched).
func reviveMidend(data []byte) (*core.MidendArtifact, error) {
	ma := core.ReviveMidendArtifact(data, 0)
	_, err := ma.Sched()
	return ma, err
}

// materializeMidend re-encodes a revived midend artifact.
func materializeMidend(ma *core.MidendArtifact) ([]byte, error) {
	enc := ma.Materialize()
	if enc == nil {
		return nil, errors.New("midend artifact does not encode")
	}
	return enc, nil
}

// addSeeds registers an encoding and adversarial mutations of it:
// truncations at several depths, a bit flip in each third, garbage
// appended past the framing, and a length prefix inflated to claim far
// more elements than the input could hold.
func addSeeds(f *testing.F, seed []byte) {
	f.Helper()
	f.Add(seed)
	for _, cut := range []int{1, 2, 3} {
		if n := len(seed) * cut / 4; n > 0 {
			f.Add(seed[:n])
		}
	}
	for _, at := range []int{1, 2} {
		if i := len(seed) * at / 3; i < len(seed) {
			flip := append([]byte(nil), seed...)
			flip[i] ^= 0x40
			f.Add(flip)
		}
	}
	f.Add(append(append([]byte(nil), seed...), 0xde, 0xad, 0xbe, 0xef))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, seed...))
}

// TestTruncatedArtifactsReportWireErrors cuts each artifact encoding
// short at many points. Each decoder reads straight through into live
// objects, so after a truncation it sees the wire decoder's zero values;
// it must report the truncation itself, never a semantic error those
// zero values caused.
func TestTruncatedArtifactsReportWireErrors(t *testing.T) {
	progEnc, midendEnc, modEnc, _ := fuzzArtifacts(t)
	g, plans := planSeeds(t)
	decoders := []struct {
		name   string
		enc    []byte
		decode func([]byte) error
	}{
		{"program", progEnc, func(b []byte) error { _, err := ir.DecodeProgram(b); return err }},
		{"midend", midendEnc, func(b []byte) error { _, err := reviveMidend(b); return err }},
		{"schedule", plans[0], func(b []byte) error { _, err := sched.DecodePlan(b, g); return err }},
		{"module", modEnc, func(b []byte) error { _, err := rtl.DecodeModule(b); return err }},
	}
	for _, dc := range decoders {
		step := max(1, len(dc.enc)/400)
		for cut := 0; cut < len(dc.enc); cut += step {
			err := dc.decode(dc.enc[:cut])
			if err == nil || !strings.Contains(err.Error(), "wire: ") {
				t.Fatalf("%s cut to %d of %d bytes: err = %v, want the wire error", dc.name, cut, len(dc.enc), err)
			}
		}
	}
}

// fixedPoint checks the round-trip contract on one fuzz input: data
// either fails to decode, or its decoded value re-encodes to enc1 and
// enc1 decodes and re-encodes to exactly enc1.
func fixedPoint[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return
	}
	enc1, err := encode(v)
	if err != nil {
		t.Fatalf("decoded value does not re-encode: %v", err)
	}
	v2, err := decode(enc1)
	if err != nil {
		t.Fatalf("re-encoded value does not decode: %v", err)
	}
	enc2, err := encode(v2)
	if err != nil {
		t.Fatalf("second decode does not re-encode: %v", err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encoding is not a fixed point: %d bytes, then %d bytes", len(enc1), len(enc2))
	}
}

func FuzzDecodeProgram(f *testing.F) {
	progEnc, _, _, _ := fuzzArtifacts(f)
	addSeeds(f, progEnc)
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, ir.DecodeProgram, ir.EncodeProgram)
	})
}

// FuzzReviveMidend fuzzes the revived midend artifact: the program
// before lowering is decoded and lowered again, and the plan is
// attached to that graph. Seeds are the ILD 4 micro and ILD 8 classical
// artifacts.
func FuzzReviveMidend(f *testing.F) {
	_, midendEnc, _, _ := fuzzArtifacts(f)
	addSeeds(f, midendEnc)
	addSeeds(f, classicalMidend(f).Materialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, reviveMidend, materializeMidend)
	})
}

// TestReviveRejectsInvalidProgram replays a single-bit flip of the
// ILD 8 classical midend encoding that decodes to a program with a
// nil-typed variable, which rtl.Build dereferenced. Revival must report
// the invalid program from Sched and Backend instead of panicking.
func TestReviveRejectsInvalidProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "midend_flip_nil_type.bin"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "revived program invalid"
	if _, err := core.ReviveMidendArtifact(data, 0).Sched(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Sched: err = %v, want %q", err, want)
	}
	ma := core.ReviveMidendArtifact(data, 0)
	if _, err := core.Backend(ma, core.BackendOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Backend: err = %v, want %q", err, want)
	}
}

// FuzzDecodePlan fuzzes the schedule plan layout (sched.DecodePlan)
// over a fixed lowered graph, ILD 8 under the classical preset. Two
// plans over that graph seed it: the classical one, with conditional
// and back edges, and an unconstrained sequential one.
func FuzzDecodePlan(f *testing.F) {
	g, plans := planSeeds(f)
	for _, enc := range plans {
		addSeeds(f, enc)
	}
	decode := func(b []byte) (*sched.Plan, error) { return sched.DecodePlan(b, g) }
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, decode, sched.EncodePlan)
	})
}

func FuzzDecodeModule(f *testing.F) {
	_, _, modEnc, _ := fuzzArtifacts(f)
	addSeeds(f, modEnc)
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, rtl.DecodeModule, rtl.EncodeModule)
	})
}

func FuzzDecodeBackendArtifact(f *testing.F) {
	_, _, _, shellEnc := fuzzArtifacts(f)
	addSeeds(f, shellEnc)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Both layers: the shell parse of ReviveBackendArtifact and the
		// netlist decode behind Mod.
		ba, err := core.ReviveBackendArtifact(data)
		if err != nil {
			return
		}
		if _, err := ba.Mod(); err != nil {
			return
		}
		if enc := ba.Materialize(); enc == nil {
			t.Fatal("decoded backend artifact does not re-encode")
		}
	})
}
