package tilestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"inplace/internal/stats"
)

// The corruption matrix: flip every single byte of a small dataset's
// data file, one at a time, and demand that opening + fully reading the
// dataset either still succeeds (a flip in the unused header pad) or
// fails with a typed sentinel — never a panic, never a silent wrong
// answer. This is the end-to-end guarantee the per-frame checksums buy.
// It runs over a freshly ingested dataset and over both committed
// golden fixtures, so the CRC64 (v1) and CRC32C (v2) payload sums are
// each held to it.
func TestCorruptionMatrix(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		s := Schema{Rows: 6, Fields: 2, ElemSize: 2, ChunkRows: 4}
		aos := makeAoS(s.Rows, s.Fields, s.ElemSize)
		_, dir := buildDataset(t, s, aos, Options{Registry: stats.NewRegistry()})
		corruptionMatrix(t, dir, s.Rows, aos)
	})
	for _, version := range []int{1, 2} {
		t.Run(fmt.Sprintf("golden_v%d", version), func(t *testing.T) {
			corruptionMatrix(t, fixtureDir(t, version), goldenSchema.Rows, goldenAoS())
		})
	}
}

// corruptionMatrix flips every byte of dir's data file in turn; rows
// and aos are the dataset's row count and ingested records.
func corruptionMatrix(t *testing.T, dir string, rows int, aos []byte) {
	pristine, err := os.ReadFile(filepath.Join(dir, dataFileName))
	if err != nil {
		t.Fatal(err)
	}

	// Each read path must catch a flip on its own, on a fresh handle:
	// the block-cache miss behind every scan and projection, and Verify.
	scan := func(d *Dataset) error {
		buf := make([]byte, len(aos))
		if err := d.ScanRows(buf, 0, rows); err != nil {
			return err
		}
		if !bytes.Equal(buf, aos) {
			t.Fatal("corrupted dataset read back wrong bytes without an error")
		}
		return nil
	}
	verify := (*Dataset).Verify
	readWith := func(dir string, read func(*Dataset) error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on corrupted dataset: %v", r)
			}
		}()
		d, err := Open(dir, Options{Registry: stats.NewRegistry()})
		if err != nil {
			return err
		}
		defer d.Close()
		return read(d)
	}

	meta, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := filepath.Join(t.TempDir(), "corrupt")
	if err := os.MkdirAll(corrupted, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupted, metaFileName), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range pristine {
		mutated := append([]byte(nil), pristine...)
		mutated[i] ^= 0xA5
		if err := os.WriteFile(filepath.Join(corrupted, dataFileName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every byte is covered: the dataset header's CRC spans its pad,
		// and each segment is under its frame's header or payload CRC.
		for _, path := range []struct {
			name string
			read func(*Dataset) error
		}{{"scan", scan}, {"verify", verify}} {
			name := path.name
			readErr := readWith(corrupted, path.read)
			if readErr == nil {
				t.Fatalf("flip of byte %d went undetected by %s", i, name)
			}
			if !errors.Is(readErr, ErrBadSchema) && !errors.Is(readErr, ErrCorruptChunk) {
				t.Fatalf("flip of byte %d produced untyped error in %s: %v", i, name, readErr)
			}
		}
	}
}

// TestTruncatedDataFile checks a sealed dataset whose data file lost
// its tail is rejected with ErrCorruptChunk at open.
func TestTruncatedDataFile(t *testing.T) {
	s := Schema{Rows: 16, Fields: 2, ElemSize: 4, ChunkRows: 8}
	aos := makeAoS(s.Rows, s.Fields, s.ElemSize)
	_, dir := buildDataset(t, s, aos, Options{Registry: stats.NewRegistry()})

	path := filepath.Join(dir, dataFileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Registry: stats.NewRegistry()}); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Open of truncated dataset = %v, want ErrCorruptChunk", err)
	}
}

// TestMetaTampering checks a meta file that disagrees with the data
// header is rejected even when both are individually self-consistent.
func TestMetaTampering(t *testing.T) {
	s := Schema{Rows: 16, Fields: 2, ElemSize: 4, ChunkRows: 8}
	aos := makeAoS(s.Rows, s.Fields, s.ElemSize)
	_, dirA := buildDataset(t, s, aos, Options{Registry: stats.NewRegistry()})

	s2 := Schema{Rows: 16, Fields: 4, ElemSize: 2, ChunkRows: 8}
	_, dirB := buildDataset(t, s2, makeAoS(s2.Rows, s2.Fields, s2.ElemSize), Options{Registry: stats.NewRegistry()})

	// Swap B's (valid, sealed) meta under A's data file.
	metaB, err := os.ReadFile(filepath.Join(dirB, metaFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirA, metaFileName), metaB, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dirA, Options{Registry: stats.NewRegistry()}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("Open with foreign meta = %v, want ErrBadSchema", err)
	}
}
