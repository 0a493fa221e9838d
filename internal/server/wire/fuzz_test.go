package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// FuzzWireDecode feeds an arbitrary byte stream through the decoder a
// peer runs: ReadHeader, ReadPayload into a buffer no larger than the
// announced limits, and the Unmarshal of the frame's control type. Each
// frame must decode to a typed wire error or to a valid frame that
// re-encodes to the same bytes; nothing may panic, and no payload may
// exceed the bound for its type (the buffer is sized to the bound, so
// an overlong announcement that slipped through would fail here, not
// allocate).
func FuzzWireDecode(f *testing.F) {
	var stream []byte
	for _, g := range goldenFrames() {
		f.Add(g.frame, uint32(DefaultMaxData))
		stream = append(stream, g.frame...)
	}
	f.Add(stream, uint32(0))
	f.Add(stream[:len(stream)-3], uint32(1<<16))
	var hdr [HeaderLen]byte
	PutHeader(&hdr, TypeData, 1<<30)
	f.Add(hdr[:], uint32(DefaultMaxData))
	PutHeader(&hdr, TypeError, errorFixedLen+3)
	f.Add(append(hdr[:], 0, 1, 0, 0, 0, 0, 0, 9, 'a', 'b', 'c'), uint32(0))
	f.Fuzz(func(t *testing.T, stream []byte, maxData uint32) {
		maxData %= 1 << 20
		dataLimit := max(int(maxData), MaxControlFrame)
		buf := make([]byte, dataLimit)
		r := bytes.NewReader(stream)
		for {
			var hdr [HeaderLen]byte
			typ, n, err := ReadHeader(r, &hdr, int(maxData))
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrUnknownType) {
					t.Fatalf("ReadHeader: untyped error %v", err)
				}
				return
			}
			limit := MaxControlFrame
			if typ == TypeData {
				limit = dataLimit
			}
			if n < 0 || n > limit {
				t.Fatalf("type %d frame of %d bytes passed a %d-byte bound", typ, n, limit)
			}
			payload := buf[:n]
			if err := ReadPayload(r, payload); err != nil {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("ReadPayload: untyped error %v", err)
				}
				return
			}
			checkControl(t, typ, payload)
		}
	})
}

// checkControl decodes one control payload: a typed error, or a frame
// whose encoding reproduces the payload.
func checkControl(t *testing.T, typ Type, p []byte) {
	t.Helper()
	var enc []byte
	var err error
	switch typ {
	case TypeHello:
		var m Hello
		if err = m.Unmarshal(p); err == nil {
			var b [HelloLen]byte
			m.Marshal(&b)
			enc = b[:]
		}
	case TypeHelloAck:
		var m HelloAck
		if err = m.Unmarshal(p); err == nil {
			var b [HelloAckLen]byte
			m.Marshal(&b)
			enc = b[:]
		}
	case TypeJob:
		var m Job
		if err = m.Unmarshal(p); err == nil {
			var b [JobLen]byte
			m.Marshal(&b)
			enc = b[:]
		}
	case TypeAccept:
		var m Accept
		if err = m.Unmarshal(p); err == nil {
			var b [AcceptLen]byte
			m.Marshal(&b)
			enc = b[:]
		}
	case TypeResult:
		var m Result
		if err = m.Unmarshal(p); err == nil {
			var b [ResultLen]byte
			m.Marshal(&b)
			enc = b[:]
		}
	case TypeResume:
		var m Resume
		if err = m.Unmarshal(p); err == nil {
			var b [ResumeLen]byte
			m.Marshal(&b)
			enc = b[:]
		}
	case TypeError:
		var m ErrorMsg
		if err = m.Unmarshal(p); err == nil {
			enc = m.AppendMarshal(nil)
		}
	default: // Data and Done carry no control layout
		return
	}
	if err != nil {
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("type %d Unmarshal: untyped error %v", typ, err)
		}
		return
	}
	if !bytes.Equal(enc, p) {
		t.Fatalf("type %d payload %x re-encodes as %x", typ, p, enc)
	}
}

// TestGoldenHelloVersions pins the handshake of both protocol versions:
// the frames are laid out alike and differ only in the version field.
func TestGoldenHelloVersions(t *testing.T) {
	for _, c := range []struct {
		version    uint16
		hello, ack string
	}{
		{1, "0000000601" + "58505344" + "0001",
			"0000001602" + "0001" + "00100000" + "0000000004000000" + "0000000040000000"},
		{2, "0000000601" + "58505344" + "0002",
			"0000001602" + "0002" + "00100000" + "0000000004000000" + "0000000040000000"},
	} {
		var hello [HelloLen]byte
		Hello{Version: c.version}.Marshal(&hello)
		var ack [HelloAckLen]byte
		HelloAck{Version: c.version, MaxData: 1 << 20, MemLimit: 1 << 26, Budget: 1 << 30}.Marshal(&ack)
		for _, g := range []struct {
			name   string
			frame  []byte
			golden string
		}{
			{"hello", frameBytes(TypeHello, hello[:]), c.hello},
			{"helloack", frameBytes(TypeHelloAck, ack[:]), c.ack},
		} {
			if got := hex.EncodeToString(g.frame); got != g.golden {
				t.Errorf("v%d %s = %s, want %s", c.version, g.name, got, g.golden)
			}
		}
		var h Hello
		if err := h.Unmarshal(hello[:]); err != nil || h.Version != c.version {
			t.Errorf("v%d hello decodes as %+v, %v", c.version, h, err)
		}
		var a HelloAck
		if err := a.Unmarshal(ack[:]); err != nil || a.Version != c.version {
			t.Errorf("v%d helloack decodes as %+v, %v", c.version, a, err)
		}
	}
}

// TestResultSumPerVersion pins the result checksum of each version to
// its reference value and checks that streaming it in pieces from 0
// equals the one-shot sum.
func TestResultSumPerVersion(t *testing.T) {
	p := []byte("123456789")
	for _, c := range []struct {
		version uint16
		want    uint64
	}{
		{1, 0x995dc9bbdf1939fa}, // CRC-64/XZ check value (ECMA polynomial, as hash/crc64 computes it)
		{2, 0xe3069283},         // CRC-32C check value
	} {
		if got := ResultSum(c.version, 0, p); got != c.want {
			t.Errorf("v%d ResultSum = %016x, want %016x", c.version, got, c.want)
		}
		if got := ResultSum(c.version, ResultSum(c.version, 0, p[:4]), p[4:]); got != c.want {
			t.Errorf("v%d streamed ResultSum = %016x, want %016x", c.version, got, c.want)
		}
	}
}
