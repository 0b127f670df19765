package core_test

import (
	"bytes"
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

// fuzzArtifacts runs the staged flow once and returns the four layered
// encodings: program, graph, schedule, netlist, and the backend shell.
func fuzzArtifacts(f testing.TB) (progEnc, graphEnc, schedEnc, modEnc, shellEnc []byte) {
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
	schedEnc = ma.Materialize()
	if graphEnc, err = htg.EncodeGraph(ma.Graph); err != nil {
		f.Fatal(err)
	}
	ba, err := core.Backend(ma, opt.BackendOptions())
	if err != nil {
		f.Fatal(err)
	}
	shellEnc = ba.Materialize()
	if modEnc, err = rtl.EncodeModule(ba.Module); err != nil {
		f.Fatal(err)
	}
	return progEnc, graphEnc, schedEnc, modEnc, shellEnc
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
	progEnc, graphEnc, schedEnc, modEnc, _ := fuzzArtifacts(t)
	decoders := []struct {
		name   string
		enc    []byte
		decode func([]byte) error
	}{
		{"program", progEnc, func(b []byte) error { _, err := ir.DecodeProgram(b); return err }},
		{"graph", graphEnc, func(b []byte) error { _, err := htg.DecodeGraph(b); return err }},
		{"schedule", schedEnc, func(b []byte) error { _, err := sched.DecodePlan(b); return err }},
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
	progEnc, _, _, _, _ := fuzzArtifacts(f)
	addSeeds(f, progEnc)
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, ir.DecodeProgram, ir.EncodeProgram)
	})
}

func FuzzDecodeGraph(f *testing.F) {
	_, graphEnc, _, _, _ := fuzzArtifacts(f)
	addSeeds(f, graphEnc)
	// A graph whose first two ops share an ID: the decoder must reject
	// it, as the midend indexes its tables by op ID.
	g, err := htg.DecodeGraph(graphEnc)
	if err != nil {
		f.Fatal(err)
	}
	ops := g.AllOps()
	ops[1].ID = ops[0].ID
	forged, err := htg.EncodeGraph(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, htg.DecodeGraph, htg.EncodeGraph)
	})
}

// FuzzDecodeResult fuzzes the schedule plan layout (sched.DecodePlan);
// it keeps the name the CI fuzz loop selects it by. The ILD 8 classical
// plan seeds conditional and back edges beside the single-state one.
func FuzzDecodeResult(f *testing.F) {
	_, _, schedEnc, _, _ := fuzzArtifacts(f)
	addSeeds(f, schedEnc)
	opt := core.Options{Preset: core.ClassicalASIC}
	fa, err := core.Frontend(ild.Program(8), opt.FrontendOptions())
	if err != nil {
		f.Fatal(err)
	}
	ma, err := core.Midend(fa, opt.MidendOptions())
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, ma.Materialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, sched.DecodePlan, sched.EncodePlan)
	})
}

func FuzzDecodeModule(f *testing.F) {
	_, _, _, modEnc, _ := fuzzArtifacts(f)
	addSeeds(f, modEnc)
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, rtl.DecodeModule, rtl.EncodeModule)
	})
}

func FuzzDecodeBackendArtifact(f *testing.F) {
	_, _, _, _, shellEnc := fuzzArtifacts(f)
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
