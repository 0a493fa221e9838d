package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A wisdom file holding only out-of-core and tile-store decisions.
const oocStoreOnly = `{
  "version": 1,
  "entries": null,
  "ooc": [
    {"rows": 16384, "cols": 16384, "elem_size": 8, "budget_log2": 26,
     "segment_bytes": 4194304, "depth": 1, "workers": 2, "gbps": 0.5}
  ],
  "store": [
    {"fields": 16, "elem_size": 4, "rows_log2": 20,
     "chunk_rows": 65536, "workers": 2, "gbps": 0.45}
  ]
}`

// TestListWisdomEverySection: -list prints the out-of-core and
// tile-store sections too, so a file holding only those is not
// reported as empty.
func TestListWisdomEverySection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := os.WriteFile(path, []byte(oocStoreOnly), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := listWisdom(&out, path); err != nil {
		t.Fatal(err)
	}
	want := "16384x16384/8B/2^26B     {SegmentBytes:4194304 Depth:1 Workers:2 GBps:0.5}\n" +
		"16f/4B/2^20rows          {ChunkRows:65536 Workers:2 GBps:0.45}\n"
	if out.String() != want {
		t.Fatalf("listing:\n%s\nwant:\n%s", out.String(), want)
	}

	tbl, err := loadWisdom(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.Entries(); n != 2 {
		t.Fatalf("Entries() = %d, want 2 (one ooc, one store)", n)
	}
}
