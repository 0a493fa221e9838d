package tilestore

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"inplace/internal/stats"
)

// The sentinel matrix: every refusal the package can issue is reachable
// and wraps exactly the documented sentinel, so errors.Is is a stable
// contract. One entry per (operation, misuse) pair.
func TestErrorSentinels(t *testing.T) {
	s := Schema{Rows: 32, Fields: 4, ElemSize: 4, ChunkRows: 16}
	aos := makeAoS(s.Rows, s.Fields, s.ElemSize)
	d, _ := buildDataset(t, s, aos, Options{Registry: stats.NewRegistry()})
	dst := func(n int) []byte { return make([]byte, n) }

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"schema zero rows", func() error {
			_, err := Create(filepath.Join(t.TempDir(), "x"), Schema{Fields: 1, ElemSize: 1, ChunkRows: 1}, Options{Registry: stats.NewRegistry()})
			return err
		}(), ErrBadSchema},
		{"schema negative field", func() error {
			_, err := newGeom(Schema{Rows: 1, Fields: -1, ElemSize: 1, ChunkRows: 1}, formatVersion)
			return err
		}(), ErrBadSchema},
		{"schema overflow", func() error {
			_, err := newGeom(Schema{Rows: 1 << 40, Fields: 1 << 40, ElemSize: 1 << 20, ChunkRows: 1}, formatVersion)
			return err
		}(), ErrBadSchema},
		{"project column high", d.Project(dst(32*4), []int{4}, 0, 32), ErrColumnRange},
		{"project column negative", d.Project(dst(32*4), []int{-1}, 0, 32), ErrColumnRange},
		{"project no columns", d.Project(dst(0), nil, 0, 32), ErrColumnRange},
		{"project rows inverted", d.Project(dst(0), []int{0}, 8, 8), ErrColumnRange},
		{"project rows past end", d.Project(dst(4), []int{0}, 32, 33), ErrColumnRange},
		{"scan rows negative", d.ScanRows(dst(16), -1, 0), ErrColumnRange},
		{"project short buffer", d.Project(dst(1), []int{0}, 0, 32), ErrLength},
		{"scan long buffer", d.ScanRows(dst(s.Rows*s.Fields*s.ElemSize+1), 0, s.Rows), ErrLength},
		{"cache below segment", func() error {
			_, err := Open(datasetDir(t, s, aos), Options{CacheBytes: 1, Registry: stats.NewRegistry()})
			return err
		}(), ErrCacheBudget},
		{"ingest sealed", d.Ingest(bytes.NewReader(aos)), ErrSealed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("operation unexpectedly succeeded")
			}
			if !errors.Is(tc.err, tc.want) {
				t.Fatalf("error %v does not wrap %v", tc.err, tc.want)
			}
		})
	}

	// Sentinels are distinct: no Is-relationship across the taxonomy.
	sentinels := []error{ErrBadSchema, ErrCorruptChunk, ErrColumnRange, ErrCacheBudget, ErrNotSealed, ErrLength, ErrSealed, ErrEngineElem}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken between %v and %v", a, b)
			}
		}
	}
}

// datasetDir builds a sealed dataset and returns its directory.
func datasetDir(t *testing.T, s Schema, aos []byte) string {
	t.Helper()
	d, dir := buildDataset(t, s, aos, Options{Registry: stats.NewRegistry()})
	d.Close()
	return dir
}
