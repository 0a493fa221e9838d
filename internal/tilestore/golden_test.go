package tilestore

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"inplace/internal/ooc"
	"inplace/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenSchema and goldenAoS are the fixed input behind both committed
// fixtures.
var goldenSchema = Schema{Rows: 50, Fields: 5, ElemSize: 4, ChunkRows: 16}

func goldenAoS() []byte {
	return makeAoS(goldenSchema.Rows, goldenSchema.Fields, goldenSchema.ElemSize)
}

// goldenPath names a committed fixture file of a format version.
func goldenPath(version int, name string) string {
	return filepath.Join("testdata", fmt.Sprintf("golden_v%d_%s", version, name))
}

// ingestGolden writes the golden input through the current write path
// and returns the dataset directory.
func ingestGolden(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "golden")
	d, err := Create(dir, goldenSchema, Options{Registry: stats.NewRegistry()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := d.Ingest(bytes.NewReader(goldenAoS())); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	d.Close()
	return dir
}

// compareGolden checks dir's data.tile and meta.json byte for byte
// against the committed fixture of the given version.
func compareGolden(t *testing.T, dir string, version int) {
	t.Helper()
	for _, name := range []string{dataFileName, metaFileName} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(goldenPath(version, name))
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverged from the v%d golden fixture: the on-disk format changed without a version bump", name, version)
		}
	}
}

// fixtureDir copies the committed fixture of a format version into a
// fresh dataset directory.
func fixtureDir(t *testing.T, version int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), fmt.Sprintf("fixture_v%d", version))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{dataFileName, metaFileName} {
		raw, err := os.ReadFile(goldenPath(version, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkFixture opens a committed fixture and demands that it verifies
// and scans back the golden input through its own version's path.
func checkFixture(t *testing.T, version int) {
	t.Helper()
	rd, err := Open(fixtureDir(t, version), Options{Registry: stats.NewRegistry()})
	if err != nil {
		t.Fatalf("Open of v%d golden fixture: %v", version, err)
	}
	defer rd.Close()
	if rd.g.version != uint32(version) {
		t.Fatalf("v%d fixture opened as format version %d", version, rd.g.version)
	}
	if err := rd.Verify(); err != nil {
		t.Fatalf("Verify of v%d golden fixture: %v", version, err)
	}
	aos := goldenAoS()
	got := make([]byte, len(aos))
	if err := rd.ScanRows(got, 0, goldenSchema.Rows); err != nil {
		t.Fatalf("ScanRows of v%d golden fixture: %v", version, err)
	}
	if !bytes.Equal(got, aos) {
		t.Fatalf("v%d golden fixture scans back different rows", version)
	}
}

// TestGoldenFormat pins the current (v2) on-disk format: ingesting a
// fixed input must reproduce the committed data.tile and meta.json byte
// for byte. Any layout, checksum, generation or header change breaks
// this test — which is the point: the format is a compatibility
// promise, and changing it requires bumping formatVersion and adding a
// fixture deliberately with -update.
func TestGoldenFormat(t *testing.T) {
	dir := ingestGolden(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{dataFileName, metaFileName} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(formatVersion, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	compareGolden(t, dir, formatVersion)
	// And the committed fixture itself must open and verify.
	checkFixture(t, formatVersion)
}

// TestGoldenFormatV1 keeps version 1 readable: the committed v1
// fixture, written by a build that summed payloads with CRC64, must
// still open, verify and scan byte-exact. It also pins rewriteAsV1
// (the v1 dataset maker of the fuzz and corruption tests) to that
// fixture, so the v1 datasets those tests read are the real format.
func TestGoldenFormatV1(t *testing.T) {
	checkFixture(t, 1)
	dir := ingestGolden(t)
	rewriteAsV1(t, dir)
	compareGolden(t, dir, 1)
}

// rewriteAsV1 converts a sealed current-version dataset in place into
// format version 1: header version and generation, every frame's
// generation and CRC64 payload sum, and the meta file.
func rewriteAsV1(t testing.TB, dir string) {
	t.Helper()
	m, g, err := readMeta(dir)
	if err != nil {
		t.Fatalf("readMeta: %v", err)
	}
	g1, err := newGeom(g.s, 1)
	if err != nil {
		t.Fatalf("newGeom v1: %v", err)
	}
	f, err := os.OpenFile(dataPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := g1.encodeHeader()
	if _, err := f.WriteAt(h[:], 0); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < g1.chunks; c++ {
		seg := make([]byte, ooc.FrameHeaderSize+g1.segPayload(c))
		for col := 0; col < g1.s.Fields; col++ {
			off := g1.segOff(c, col)
			if _, err := f.ReadAt(seg, off); err != nil {
				t.Fatal(err)
			}
			fr, ok := ooc.ParseFrame(seg[:ooc.FrameHeaderSize])
			if !ok {
				t.Fatalf("chunk %d column %d: bad frame", c, col)
			}
			fr.Gen = g1.gen
			fr.PayloadSum = ooc.Checksum(seg[ooc.FrameHeaderSize:])
			ooc.PutFrame(seg, fr)
			if _, err := f.WriteAt(seg[:ooc.FrameHeaderSize], off); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Version = 1
	m.Generation = g1.gen
	if err := writeMeta(dir, m); err != nil {
		t.Fatal(err)
	}
}
