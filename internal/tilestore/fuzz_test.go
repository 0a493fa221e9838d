package tilestore

import (
	"bytes"
	"path/filepath"
	"testing"

	"inplace/internal/stats"
)

// FuzzTilestore is the differential fuzzer: an arbitrary schema and
// seed drive a full create/ingest/scan/project cycle, and every byte
// read back is checked against the trivial in-memory AoS oracle. The
// fuzzer owns the schema-normalization corner cases (clamped chunk
// rows, one-row datasets, odd element widths, budgets that force the
// spill path) that table-driven tests enumerate only pointwise. With v1
// set, the sealed dataset is rewritten as format version 1 (CRC64
// payload sums) before it is reopened, so the read path of the older
// format is held to the same oracle.
func FuzzTilestore(f *testing.F) {
	f.Add(7, 3, 2, 4, uint8(0), false, false)
	f.Add(1, 1, 1, 1, uint8(1), false, false)
	f.Add(50, 5, 4, 16, uint8(2), false, false)
	f.Add(33, 2, 8, 50, uint8(3), true, false)
	f.Add(24, 7, 3, 8, uint8(4), true, false)
	f.Add(50, 5, 4, 16, uint8(5), false, true)
	f.Add(24, 7, 3, 8, uint8(6), true, true)
	f.Fuzz(func(t *testing.T, rows, fields, elem, chunkRows int, seed uint8, spill, v1 bool) {
		// Clamp to a tractable region; invalid shapes must be rejected
		// cleanly by Create rather than skipped here.
		if rows > 200 || fields > 24 || elem > 16 || chunkRows > 300 {
			t.Skip("shape too large for fuzz budget")
		}
		s := Schema{Rows: rows, Fields: fields, ElemSize: elem, ChunkRows: chunkRows}
		opts := Options{Registry: stats.NewRegistry()}
		if spill {
			opts.MemBudget = 1 // force every chunk through the ooc spill path
		}
		dir := filepath.Join(t.TempDir(), "ds")
		d, err := Create(dir, s, opts)
		if rows <= 0 || fields <= 0 || elem <= 0 || chunkRows <= 0 {
			if err == nil {
				t.Fatal("Create accepted an invalid schema")
			}
			return
		}
		if err != nil {
			t.Fatalf("Create(%+v): %v", s, err)
		}

		aos := makeAoS(rows, fields, elem)
		for i := range aos {
			aos[i] ^= seed
		}
		if err := d.Ingest(bytes.NewReader(aos)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		d.Close()
		version := uint32(formatVersion)
		if v1 {
			rewriteAsV1(t, dir)
			version = 1
		}

		rd, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer rd.Close()
		if rd.g.version != version {
			t.Fatalf("dataset opened as format version %d, want %d", rd.g.version, version)
		}

		got := make([]byte, len(aos))
		if err := rd.ScanRows(got, 0, rows); err != nil {
			t.Fatalf("ScanRows: %v", err)
		}
		if !bytes.Equal(got, aos) {
			t.Fatal("scan differs from oracle")
		}

		// A derived projection: columns and row window depend on the
		// fuzzed shape so the space is explored without extra inputs.
		cols := []int{int(seed) % fields, (int(seed) + fields/2) % fields}
		lo := int(seed) % rows
		hi := lo + 1 + (rows-lo-1)/2
		want := oracleProject(aos, fields, elem, cols, lo, hi)
		proj := make([]byte, len(want))
		if err := rd.Project(proj, cols, lo, hi); err != nil {
			t.Fatalf("Project(%v, %d, %d): %v", cols, lo, hi, err)
		}
		if !bytes.Equal(proj, want) {
			t.Fatal("projection differs from oracle")
		}
		if err := rd.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	})
}
