package ooc

import (
	"bytes"
	"hash/crc32"
	"hash/crc64"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{
		Kind:       7,
		Tag:        0xdeadbeef,
		Unit:       1 << 40,
		PayloadLen: 4096,
		PayloadSum: 0x0123456789abcdef,
		Gen:        42,
	}
	var buf [FrameHeaderSize]byte
	PutFrame(buf[:], f)
	got, ok := ParseFrame(buf[:])
	if !ok {
		t.Fatal("ParseFrame rejected a freshly encoded header")
	}
	if got != f {
		t.Fatalf("round trip mismatch: got %+v, want %+v", got, f)
	}
}

func TestFrameDetectsEveryFlippedByte(t *testing.T) {
	var buf [FrameHeaderSize]byte
	PutFrame(buf[:], Frame{Kind: 1, Tag: 2, Unit: 3, PayloadLen: 4, PayloadSum: 5, Gen: 6})
	for i := range buf {
		corrupt := buf
		corrupt[i] ^= 0x40
		if _, ok := ParseFrame(corrupt[:]); ok {
			t.Fatalf("flip of byte %d went undetected", i)
		}
	}
}

func TestFrameReservedBytesZeroed(t *testing.T) {
	// PutFrame must fully overwrite dst, including the reserved pad
	// after Kind: encoding into a dirty buffer and a clean one must
	// produce identical bytes (the determinism the golden fixtures of
	// downstream formats rely on).
	var clean [FrameHeaderSize]byte
	dirty := [FrameHeaderSize]byte{1: 0xff, 2: 0xee, 3: 0xdd}
	f := Frame{Kind: 9, Tag: 8, Unit: 7, PayloadLen: 6, PayloadSum: 5, Gen: 4}
	PutFrame(clean[:], f)
	PutFrame(dirty[:], f)
	if !bytes.Equal(clean[:], dirty[:]) {
		t.Fatalf("encoding depends on prior dst contents:\n%x\n%x", clean, dirty)
	}
}

func TestChecksumMatchesReference(t *testing.T) {
	p := []byte("the quick brown fox jumps over the lazy dog")
	want := crc64.Checksum(p, crc64.MakeTable(crc64.ECMA))
	if got := Checksum(p); got != want {
		t.Fatalf("Checksum = %016x, want ECMA reference %016x", got, want)
	}
}

func TestCRC32CMatchesReference(t *testing.T) {
	p := []byte("the quick brown fox jumps over the lazy dog")
	want := uint64(crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	if got := CRC32C(p); got != want {
		t.Fatalf("CRC32C = %016x, want Castagnoli reference %016x", got, want)
	}
	// Streaming in uneven pieces from 0 gives the one-shot sum.
	var sum uint64
	for _, piece := range [][]byte{p[:1], p[1:17], p[17:17], p[17:]} {
		sum = CRC32CUpdate(sum, piece)
	}
	if sum != want {
		t.Fatalf("CRC32CUpdate over pieces = %016x, want %016x", sum, want)
	}
}

// TestChecksumRange checks the ranged payload sum, CRC32CRange.
func TestChecksumRange(t *testing.T) {
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	backing := append(append(make([]byte, 0, len(payload)+64), make([]byte, 32)...), payload...)
	r := bytes.NewReader(backing)
	got, err := CRC32CRange(r, 32, int64(len(payload)))
	if err != nil {
		t.Fatalf("CRC32CRange: %v", err)
	}
	if want := CRC32C(payload); got != want {
		t.Fatalf("CRC32CRange = %016x, want %016x", got, want)
	}
	// A range running past EOF checksums only the available bytes
	// (io.Copy treats EOF as normal termination); the caller's recorded
	// checksum then mismatches, which is how torn journal payloads are
	// detected.
	short, err := CRC32CRange(r, 32, int64(len(backing)))
	if err != nil {
		t.Fatalf("CRC32CRange past EOF: %v", err)
	}
	if short != got {
		t.Fatalf("past-EOF range checksummed %016x, want the available-bytes checksum %016x", short, got)
	}
}
