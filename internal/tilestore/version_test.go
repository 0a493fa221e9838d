package tilestore

import (
	"bytes"
	"hash/crc32"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"inplace/internal/ooc"
	"inplace/internal/stats"
)

// TestPayloadSumsPerVersion checks each committed fixture's segment
// sums against an independent reference: CRC32C in version 2, CRC64-
// ECMA in version 1.
func TestPayloadSumsPerVersion(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	ecma := crc64.MakeTable(crc64.ECMA)
	ref := map[int]func([]byte) uint64{
		1: func(p []byte) uint64 { return crc64.Checksum(p, ecma) },
		2: func(p []byte) uint64 { return uint64(crc32.Checksum(p, castagnoli)) },
	}
	for version, sum := range ref {
		raw, err := os.ReadFile(goldenPath(version, dataFileName))
		if err != nil {
			t.Fatal(err)
		}
		g, err := newGeom(goldenSchema, uint32(version))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < g.chunks; c++ {
			for col := 0; col < g.s.Fields; col++ {
				off := g.segOff(c, col)
				fr, ok := ooc.ParseFrame(raw[off : off+ooc.FrameHeaderSize])
				if !ok {
					t.Fatalf("v%d chunk %d column %d: bad frame", version, c, col)
				}
				payload := raw[off+ooc.FrameHeaderSize : off+ooc.FrameHeaderSize+int64(g.segPayload(c))]
				if want := sum(payload); fr.PayloadSum != want {
					t.Fatalf("v%d chunk %d column %d: sum %016x, reference %016x", version, c, col, fr.PayloadSum, want)
				}
			}
		}
	}
}

// TestVerifyOneReadPerSegment pins Verify's metering to the calls it
// really makes: one read of frame header plus payload per segment.
func TestVerifyOneReadPerSegment(t *testing.T) {
	for _, version := range []int{1, 2} {
		rd, err := Open(fixtureDir(t, version), Options{Registry: stats.NewRegistry()})
		if err != nil {
			t.Fatalf("Open v%d: %v", version, err)
		}
		if err := rd.Verify(); err != nil {
			t.Fatalf("Verify v%d: %v", version, err)
		}
		st := rd.Stats()
		rd.Close()
		if want := uint64(rd.g.chunks * rd.g.s.Fields); st.ReadOps != want {
			t.Errorf("v%d: Verify made %d read ops, want one per segment (%d)", version, st.ReadOps, want)
		}
		if want := uint64(rd.g.dataBytes - hdrSize); st.BytesRead != want {
			t.Errorf("v%d: Verify read %d bytes, want every segment once (%d)", version, st.BytesRead, want)
		}
	}
}

// TestOpenIngestUpgradesUnsealedV1 resumes the ingest of a version-1
// dataset killed before sealing: nothing of it was visible, so it
// restarts and seals at the current version.
func TestOpenIngestUpgradesUnsealedV1(t *testing.T) {
	s := Schema{Rows: 20, Fields: 3, ElemSize: 4, ChunkRows: 8}
	aos := makeAoS(s.Rows, s.Fields, s.ElemSize)
	dir := filepath.Join(t.TempDir(), "ds")
	opts := Options{Registry: stats.NewRegistry()}
	d, err := Create(dir, s, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	g1, err := newGeom(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := g1.encodeHeader()
	if err := d.writeAt(h[:], 0); err != nil {
		t.Fatal(err)
	}
	d.Close()
	m := metaFile{Magic: "xtile", Version: 1, Rows: s.Rows, Fields: s.Fields, ElemSize: s.ElemSize,
		ChunkRows: s.ChunkRows, Generation: g1.gen, State: stateIngesting, DataBytes: g1.dataBytes}
	if err := writeMeta(dir, m); err != nil {
		t.Fatal(err)
	}

	in, err := OpenIngest(dir, opts)
	if err != nil {
		t.Fatalf("OpenIngest of unsealed v1: %v", err)
	}
	if err := in.Ingest(bytes.NewReader(aos)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	in.Close()
	rd, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rd.Close()
	if rd.g.version != formatVersion {
		t.Fatalf("re-ingested dataset is format version %d, want %d", rd.g.version, formatVersion)
	}
	if err := rd.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	got := make([]byte, len(aos))
	if err := rd.ScanRows(got, 0, s.Rows); err != nil || !bytes.Equal(got, aos) {
		t.Fatalf("ScanRows = %v, equal %v", err, bytes.Equal(got, aos))
	}
}
