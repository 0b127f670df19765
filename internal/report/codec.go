package report

import (
	"fmt"

	"sparkgo/internal/wire"
)

// tableTag versions the table wire layout.
const tableTag = "table/1"

// EncodeTable serializes a table losslessly in the deterministic binary
// framing of internal/wire, completing the artifact codec family: every
// layer of the staged flow — program, graph, schedule, netlist, and the
// rendered report — has a byte-stable encoder for disk-backed
// persistence. Tables are plain value structs — title, headers, rows —
// so decode∘encode is the identity, the same contract the stage codecs
// carry. (JSON surfaces marshal Table directly; this codec is for
// binary stores such as internal/cache.)
func EncodeTable(t *Table) ([]byte, error) {
	e := wire.NewEncoder(256)
	e.Tag(tableTag)
	e.String(t.Title)
	e.Uvarint(uint64(len(t.Headers)))
	for _, h := range t.Headers {
		e.String(h)
	}
	e.Uvarint(uint64(len(t.Rows)))
	for _, row := range t.Rows {
		e.Uvarint(uint64(len(row)))
		for _, cell := range row {
			e.String(cell)
		}
	}
	return e.Data(), nil
}

// DecodeTable reconstructs a table serialized by EncodeTable.
func DecodeTable(data []byte) (*Table, error) {
	d := wire.NewDecoder(data)
	d.Tag(tableTag)
	t := &Table{Title: d.String()}
	if n := d.Len(1); n > 0 {
		t.Headers = make([]string, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			t.Headers = append(t.Headers, d.String())
		}
	}
	if n := d.Len(1); n > 0 {
		t.Rows = make([][]string, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rn := d.Len(1)
			row := make([]string, 0, rn)
			for j := 0; j < rn && d.Err() == nil; j++ {
				row = append(row, d.String())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("report: decode table: %w", err)
	}
	return t, nil
}
