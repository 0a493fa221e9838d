package tilestore

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"

	"inplace/internal/mathutil"
	"inplace/internal/ooc"
)

// The on-disk format. A dataset is a directory holding two files:
//
//	data.tile — a 64-byte checksummed header followed by the column
//	            segments, chunk-major: chunk 0's segments for columns
//	            0..fields-1, then chunk 1's, and so on. Every segment
//	            is one ooc.Frame (48-byte checksummed header carrying
//	            the column, chunk, generation and payload checksum)
//	            followed by the column's values for that chunk,
//	            contiguous — the SoA layout the skinny AoS→SoA
//	            transpose produces on ingest.
//	meta.json — the commit point, written atomically (tmp + rename)
//	            by the same meta-state-machine pattern as the xposed
//	            spill registry: state "ingesting" at create, "sealed"
//	            only after every segment is durably on disk. A dataset
//	            whose meta is absent or not sealed does not exist as
//	            far as Open is concerned, which is what makes a
//	            mid-ingest kill leave either nothing or a fully valid
//	            dataset.
//
// Every offset is computable from the schema alone (all chunks are
// chunkRows tall except a possibly shorter last one), so there is no
// segment directory to keep consistent: the frame headers are pure
// verification, not lookup structure.
//
// Format versions differ only in the segment payload checksum: version
// 2 sums payloads with CRC32C (ooc.CRC32C, zero-extended into the
// frame's 64-bit sum), version 1 with CRC64-ECMA. Headers keep CRC64 in
// both. Datasets are always written at formatVersion; Open still reads
// version 1, taking the sum function from the header's version field.

const (
	dataMagic        = "XTILEv1\n" // the file type; the format version is a header field
	formatVersion    = 2
	minFormatVersion = 1
	hdrSize          = 64

	dataFileName = "data.tile"
	metaFileName = "meta.json"

	// segKind is the frame kind of a column segment. Stable on-disk value.
	segKind = 1
)

// Meta states. Persisted in meta.json; the numeric values are format,
// do not renumber.
const (
	stateIngesting = 0
	stateSealed    = 1
)

// Schema describes a dataset: Rows records of Fields fields, each field
// ElemSize bytes, stored in chunks of ChunkRows records. ChunkRows
// values larger than Rows are clamped to one chunk at validation.
type Schema struct {
	Rows      int
	Fields    int
	ElemSize  int
	ChunkRows int
}

// geom is a validated schema with every derived size proven
// overflow-free once, so the read and write paths index with plain
// arithmetic on trusted values.
type geom struct {
	s Schema

	chunks   int // number of chunks
	lastRows int // rows in the final chunk (1..ChunkRows)

	rowBytes  int   // Fields*ElemSize: one AoS record
	segBytes  int   // ChunkRows*ElemSize: full-chunk segment payload
	lastSeg   int   // lastRows*ElemSize
	chunkMem  int   // ChunkRows*rowBytes: one resident AoS chunk
	chunkDisk int64 // on-disk bytes of a full chunk (frames included)
	dataBytes int64 // total data.tile size
	gen       uint64
	version   uint32 // format version: picks the payload checksum
}

// newGeom validates s (clamping ChunkRows to Rows) and derives the
// proven byte geometry of a dataset of the given format version.
func newGeom(s Schema, version uint32) (geom, error) {
	if s.Rows <= 0 || s.Fields <= 0 || s.ElemSize <= 0 || s.ChunkRows <= 0 {
		return geom{}, schemaErr("all dimensions must be positive", s)
	}
	if s.ChunkRows > s.Rows {
		s.ChunkRows = s.Rows
	}
	g := geom{s: s, version: version}
	var ok bool
	if g.rowBytes, ok = mathutil.CheckedMul(s.Fields, s.ElemSize); !ok {
		return geom{}, schemaErr("record byte size overflows int", s)
	}
	if g.segBytes, ok = mathutil.CheckedMul(s.ChunkRows, s.ElemSize); !ok {
		return geom{}, schemaErr("segment byte size overflows int", s)
	}
	if g.chunkMem, ok = mathutil.CheckedMul(s.ChunkRows, g.rowBytes); !ok {
		return geom{}, schemaErr("chunk byte size overflows int", s)
	}
	if _, ok = mathutil.CheckedMul(s.Rows, g.rowBytes); !ok {
		return geom{}, schemaErr("dataset byte size overflows int", s)
	}
	g.chunks = (s.Rows + s.ChunkRows - 1) / s.ChunkRows
	g.lastRows = s.Rows - (g.chunks-1)*s.ChunkRows
	g.lastSeg = g.lastRows * s.ElemSize

	// Frame overhead: Fields headers per chunk. Guard the grand total —
	// payload bytes were proven above, the headers ride on top.
	frames, ok := mathutil.CheckedMul(g.chunks, s.Fields)
	if !ok {
		return geom{}, schemaErr("frame count overflows int", s)
	}
	overhead, ok := mathutil.CheckedMul(frames, ooc.FrameHeaderSize)
	if !ok {
		return geom{}, schemaErr("frame overhead overflows int", s)
	}
	perChunk, ok := mathutil.CheckedMul(s.Fields, ooc.FrameHeaderSize+g.segBytes)
	if !ok {
		return geom{}, schemaErr("chunk disk size overflows int", s)
	}
	g.chunkDisk = int64(perChunk)
	g.dataBytes = hdrSize + int64(g.chunks-1)*g.chunkDisk +
		int64(s.Fields)*int64(ooc.FrameHeaderSize+g.lastSeg)
	if g.dataBytes > int64(math.MaxInt64)-int64(overhead) {
		return geom{}, schemaErr("data file size overflows", s)
	}
	g.gen = g.generation()
	return g, nil
}

// rowsIn returns the record count of chunk c.
func (g *geom) rowsIn(c int) int {
	if c == g.chunks-1 {
		return g.lastRows
	}
	return g.s.ChunkRows
}

// segPayload returns the payload byte size of any segment of chunk c.
func (g *geom) segPayload(c int) int {
	if c == g.chunks-1 {
		return g.lastSeg
	}
	return g.segBytes
}

// chunkOff returns the data-file offset of chunk c's first segment.
func (g *geom) chunkOff(c int) int64 {
	return hdrSize + int64(c)*g.chunkDisk
}

// sum returns the segment payload checksum of p under the dataset's
// format version.
func (g *geom) sum(p []byte) uint64 {
	if g.version == 1 {
		return ooc.Checksum(p)
	}
	return ooc.CRC32C(p)
}

// segOff returns the data-file offset of the frame header of (chunk c,
// column f).
func (g *geom) segOff(c, f int) int64 {
	return g.chunkOff(c) + int64(f)*int64(ooc.FrameHeaderSize+g.segPayload(c))
}

// encodeHeader renders the 64-byte data-file header.
func (g *geom) encodeHeader() [hdrSize]byte {
	var h [hdrSize]byte
	copy(h[0:8], dataMagic)
	binary.LittleEndian.PutUint32(h[8:12], g.version)
	binary.LittleEndian.PutUint32(h[12:16], uint32(g.s.ElemSize))
	binary.LittleEndian.PutUint64(h[16:24], uint64(g.s.Rows))
	binary.LittleEndian.PutUint64(h[24:32], uint64(g.s.Fields))
	binary.LittleEndian.PutUint64(h[32:40], uint64(g.s.ChunkRows))
	binary.LittleEndian.PutUint64(h[40:48], g.gen)
	binary.LittleEndian.PutUint64(h[56:64], ooc.Checksum(h[0:56]))
	return h
}

// generation derives the dataset generation deterministically from the
// schema: the checksum of the header's identity bytes. Segments carry
// it in their frames, so a segment of one geometry can never be
// mistaken for a segment of another — and determinism keeps ingest
// byte-reproducible (the golden-fixture property).
func (g *geom) generation() uint64 {
	var h [48]byte
	copy(h[0:8], dataMagic)
	binary.LittleEndian.PutUint32(h[8:12], g.version)
	binary.LittleEndian.PutUint32(h[12:16], uint32(g.s.ElemSize))
	binary.LittleEndian.PutUint64(h[16:24], uint64(g.s.Rows))
	binary.LittleEndian.PutUint64(h[24:32], uint64(g.s.Fields))
	binary.LittleEndian.PutUint64(h[32:40], uint64(g.s.ChunkRows))
	return ooc.Checksum(h[:40])
}

// u64Dim converts a decoded unsigned dimension to int, rejecting values
// that do not fit: every header field is bounds-checked before any
// arithmetic or allocation trusts it.
func u64Dim(v uint64) (int, bool) {
	if v == 0 || v > uint64(math.MaxInt/2) {
		return 0, false
	}
	return int(v), true
}

// decodeHeader validates a data-file header and reconstructs the
// geometry.
func decodeHeader(h []byte) (geom, error) {
	if len(h) != hdrSize {
		return geom{}, headerErr("short header")
	}
	if string(h[0:8]) != dataMagic {
		return geom{}, headerErr("bad magic")
	}
	if got := binary.LittleEndian.Uint64(h[56:64]); got != ooc.Checksum(h[0:56]) {
		return geom{}, headerErr("header checksum mismatch")
	}
	version := binary.LittleEndian.Uint32(h[8:12])
	if version < minFormatVersion || version > formatVersion {
		return geom{}, headerErr("unsupported format version")
	}
	elem, ok := u64Dim(uint64(binary.LittleEndian.Uint32(h[12:16])))
	if !ok {
		return geom{}, headerErr("element size out of range")
	}
	rows, ok := u64Dim(binary.LittleEndian.Uint64(h[16:24]))
	if !ok {
		return geom{}, headerErr("row count out of range")
	}
	fields, ok := u64Dim(binary.LittleEndian.Uint64(h[24:32]))
	if !ok {
		return geom{}, headerErr("field count out of range")
	}
	chunkRows, ok := u64Dim(binary.LittleEndian.Uint64(h[32:40]))
	if !ok {
		return geom{}, headerErr("chunk rows out of range")
	}
	g, err := newGeom(Schema{Rows: rows, Fields: fields, ElemSize: elem, ChunkRows: chunkRows}, version)
	if err != nil {
		return geom{}, err
	}
	if gen := binary.LittleEndian.Uint64(h[40:48]); gen != g.gen {
		return geom{}, headerErr("generation does not match schema")
	}
	return g, nil
}

// metaFile is the persisted dataset description and commit state.
type metaFile struct {
	Magic      string `json:"magic"`
	Version    int    `json:"version"`
	Rows       int    `json:"rows"`
	Fields     int    `json:"fields"`
	ElemSize   int    `json:"elem_size"`
	ChunkRows  int    `json:"chunk_rows"`
	Generation uint64 `json:"generation"`
	State      int    `json:"state"`
	DataBytes  int64  `json:"data_bytes"`
}

func metaPath(dir string) string { return filepath.Join(dir, metaFileName) }
func dataPath(dir string) string { return filepath.Join(dir, dataFileName) }

// writeMeta persists m atomically: tmp file, sync, rename. A kill at
// any point leaves either the previous meta or the new one, never a
// torn file.
func writeMeta(dir string, m metaFile) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	path := metaPath(dir)
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(raw); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readMeta loads and validates the meta file against the recomputed
// geometry. The returned geom is derived from the meta's own schema, so
// a caller still has to cross-check it against the data header.
func readMeta(dir string) (metaFile, geom, error) {
	raw, err := os.ReadFile(metaPath(dir))
	if err != nil {
		return metaFile{}, geom{}, err
	}
	var m metaFile
	if err := json.Unmarshal(raw, &m); err != nil {
		return metaFile{}, geom{}, headerErr("meta is not valid JSON")
	}
	if m.Magic != "xtile" || m.Version < minFormatVersion || m.Version > formatVersion {
		return metaFile{}, geom{}, headerErr("meta magic or version mismatch")
	}
	g, err := newGeom(Schema{Rows: m.Rows, Fields: m.Fields, ElemSize: m.ElemSize, ChunkRows: m.ChunkRows}, uint32(m.Version))
	if err != nil {
		return metaFile{}, geom{}, err
	}
	if m.Generation != g.gen {
		return metaFile{}, geom{}, headerErr("meta generation does not match schema")
	}
	if m.DataBytes != g.dataBytes {
		return metaFile{}, geom{}, headerErr("meta data size does not match schema")
	}
	if m.State != stateIngesting && m.State != stateSealed {
		return metaFile{}, geom{}, headerErr("unknown meta state")
	}
	return m, g, nil
}
