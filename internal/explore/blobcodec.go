package explore

import (
	"fmt"

	"sparkgo/internal/core"
	"sparkgo/internal/wire"
)

// Wire codecs for the engine's disk blobs. A blob is a thin shell
// around a stage artifact's lossless encoding: the payload travels as
// opaque bytes (already wire-framed by its own codec), and the metadata
// the sweep reads — fingerprints, cycle and round counts — rides
// alongside so revival never has to decode the payload to answer for
// it. Integrity is the cache layer's job (a streamed SHA-256 over the
// whole blob), so decoding here is pure parsing, no verification.

// Blob format tags. The backend blob has none of its own: it is core's
// backend encoding, tagged by core.
const (
	frontendBlobTag = "expfe/2"
	midendBlobTag   = "expme/1"
	pointTag        = "exppt/2"
)

func (b *frontendBlob) encode() []byte {
	e := wire.NewEncoder(128 + len(b.Program))
	e.Tag(frontendBlobTag)
	e.Bytes(b.Program)
	e.String(b.Fingerprint)
	e.Int(b.Rounds)
	return e.Data()
}

func decodeFrontendBlob(data []byte) (*frontendBlob, error) {
	d := wire.NewDecoder(data)
	d.Tag(frontendBlobTag)
	b := &frontendBlob{
		Program:     d.Bytes(),
		Fingerprint: d.String(),
		Rounds:      d.Int(),
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("explore: frontend blob: %w", err)
	}
	return b, nil
}

func (b *midendBlob) encode() []byte {
	e := wire.NewEncoder(128 + len(b.Schedule))
	e.Tag(midendBlobTag)
	e.Bytes(b.Schedule)
	e.String(b.Fingerprint)
	e.Int(b.Cycles)
	return e.Data()
}

func decodeMidendBlob(data []byte) (*midendBlob, error) {
	d := wire.NewDecoder(data)
	d.Tag(midendBlobTag)
	b := &midendBlob{
		Schedule:    d.Bytes(),
		Fingerprint: d.String(),
		Cycles:      d.Int(),
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("explore: midend blob: %w", err)
	}
	return b, nil
}

// encodePoint serializes a fully evaluated point — config and metrics —
// for the point-level disk cache.
func encodePoint(pt *Point) []byte {
	e := wire.NewEncoder(256)
	e.Tag(pointTag)
	c := &pt.Config
	e.String(c.Source)
	e.Int(c.N)
	e.Int(int(c.Preset))
	e.Bool(c.NoSpeculation)
	e.Bool(c.NoUnroll)
	e.Bool(c.NoConstProp)
	e.Bool(c.NoCSE)
	e.Bool(c.NoChaining)
	e.Int(c.MaxUnroll)
	e.Uvarint(uint64(len(c.Passes)))
	for _, p := range c.Passes {
		e.String(p)
	}
	e.Int(pt.Cycles)
	e.Int(pt.Latency)
	e.Float64(pt.CritPath)
	e.Float64(pt.Area)
	e.Int(pt.Muxes)
	e.Int(pt.FUs)
	e.Int(pt.Rounds)
	e.String(pt.Err)
	return e.Data()
}

func decodePoint(data []byte) (*Point, error) {
	d := wire.NewDecoder(data)
	d.Tag(pointTag)
	pt := &Point{}
	c := &pt.Config
	c.Source = d.String()
	c.N = d.Int()
	c.Preset = core.Preset(d.Int())
	c.NoSpeculation = d.Bool()
	c.NoUnroll = d.Bool()
	c.NoConstProp = d.Bool()
	c.NoCSE = d.Bool()
	c.NoChaining = d.Bool()
	c.MaxUnroll = d.Int()
	if n := d.Len(1); n > 0 {
		c.Passes = make([]string, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			c.Passes = append(c.Passes, d.String())
		}
	}
	pt.Cycles = d.Int()
	pt.Latency = d.Int()
	pt.CritPath = d.Float64()
	pt.Area = d.Float64()
	pt.Muxes = d.Int()
	pt.FUs = d.Int()
	pt.Rounds = d.Int()
	pt.Err = d.String()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("explore: point: %w", err)
	}
	return pt, nil
}
