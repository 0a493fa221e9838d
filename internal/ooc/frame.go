package ooc

import (
	"encoding/binary"
	"hash/crc32"
	"hash/crc64"
	"io"
)

// byteOrder is the endianness of every on-disk integer in this package.
var byteOrder = binary.LittleEndian

// Checksummed record framing, shared between the progress journal and
// the columnar tile store (internal/tilestore). A frame is a fixed
// 48-byte header followed by an arbitrary payload: the header carries
// the payload length and a caller-computed 64-bit payload checksum
// (CRC32C zero-extended, see CRC32C, in the version-2 journal and the
// version-2 tile store; CRC64-ECMA in version-1 tile stores) plus
// three caller-defined identity fields, and is itself closed by a
// CRC64 over its first 40 bytes. A single flipped bit
// anywhere — header or payload — is therefore detectable without
// trusting any other byte of the file, which is what lets both
// consumers treat "first frame that fails validation" as the logical
// end (journal) or as corruption (tilestore segments).
//
// The byte layout is the journal's original record format; extracting it
// here changed no on-disk bytes.

// FrameHeaderSize is the fixed byte size of an encoded frame header.
const FrameHeaderSize = 48

// Frame is the decoded header of one checksummed record.
//
// Kind, Tag, Unit and Gen are caller-defined identity: the journal uses
// them as record kind, pass index, unit index and run generation; the
// tile store uses them as segment kind, column index, chunk index and
// dataset generation. PayloadLen and PayloadSum describe the payload
// that follows the header.
type Frame struct {
	Kind       byte
	Tag        uint32
	Unit       uint64
	PayloadLen uint64
	PayloadSum uint64
	Gen        uint64
}

// Checksum returns the CRC64-ECMA checksum of p, the sum behind every
// frame and journal header. Payloads are summed with CRC32C instead
// (only version-1 tile stores summed their segments with Checksum).
func Checksum(p []byte) uint64 { return crc64.Checksum(p, crcTab) }

var (
	crcTab     = crc64.MakeTable(crc64.ECMA)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// CRC32C returns the payload checksum of p: hardware CRC32C
// (Castagnoli), zero-extended to the frame's 64-bit sum field. The
// journal, the tile store and the xposed result stream all sum their
// payloads with it.
func CRC32C(p []byte) uint64 { return uint64(crc32.Checksum(p, castagnoli)) }

// CRC32CUpdate folds p into a running CRC32C, so a payload can be
// summed while it streams past (start from 0; the result after the
// final piece equals CRC32C over the concatenation).
func CRC32CUpdate(sum uint64, p []byte) uint64 {
	return uint64(crc32.Update(uint32(sum), castagnoli, p))
}

// CRC32CRange computes CRC32C over n bytes at off without holding the
// range resident: payload verification for frames too large to buffer.
// A range running past EOF sums only the bytes present, so the caller's
// recorded sum then mismatches.
func CRC32CRange(r io.ReaderAt, off, n int64) (uint64, error) {
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, io.NewSectionReader(r, off, n)); err != nil {
		return 0, err
	}
	return uint64(h.Sum32()), nil
}

// PutFrame encodes f into dst, which must be at least FrameHeaderSize
// bytes. The final 8 bytes are the CRC64 of the preceding 40, so a
// parse round-trips if and only if no header byte was altered.
func PutFrame(dst []byte, f Frame) {
	_ = dst[FrameHeaderSize-1]
	dst[0] = f.Kind
	dst[1], dst[2], dst[3] = 0, 0, 0
	byteOrder.PutUint32(dst[4:8], f.Tag)
	byteOrder.PutUint64(dst[8:16], f.Unit)
	byteOrder.PutUint64(dst[16:24], f.PayloadLen)
	byteOrder.PutUint64(dst[24:32], f.PayloadSum)
	byteOrder.PutUint64(dst[32:40], f.Gen)
	byteOrder.PutUint64(dst[40:48], crc64.Checksum(dst[0:40], crcTab))
}

// ParseFrame decodes a frame header from src (at least FrameHeaderSize
// bytes). ok is false when the embedded header checksum does not match
// — a torn or corrupted header — in which case the returned Frame is
// zero and none of its fields may be trusted.
func ParseFrame(src []byte) (f Frame, ok bool) {
	_ = src[FrameHeaderSize-1]
	if byteOrder.Uint64(src[40:48]) != crc64.Checksum(src[0:40], crcTab) {
		return Frame{}, false
	}
	f.Kind = src[0]
	f.Tag = byteOrder.Uint32(src[4:8])
	f.Unit = byteOrder.Uint64(src[8:16])
	f.PayloadLen = byteOrder.Uint64(src[16:24])
	f.PayloadSum = byteOrder.Uint64(src[24:32])
	f.Gen = byteOrder.Uint64(src[32:40])
	return f, true
}
