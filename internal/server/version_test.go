package server

import (
	"bytes"
	"hash/crc32"
	"hash/crc64"
	"net"
	"testing"

	"inplace/internal/server/wire"
)

// TestSessionVersionPicksResultSum drives raw sessions of both protocol
// versions through the in-memory and the spilled path: a version-1
// session (an old client) is acked as version 1 and gets CRC64-ECMA
// results, a version-2 session gets CRC32C, and both get the right
// transpose.
func TestSessionVersionPicksResultSum(t *testing.T) {
	_, addr := startServer(t, Config{SpillDir: t.TempDir(), OOCBudget: 64 << 10})
	ecma := crc64.MakeTable(crc64.ECMA)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	sums := []func([]byte) uint64{
		1: func(p []byte) uint64 { return crc64.Checksum(p, ecma) },
		2: func(p []byte) uint64 { return uint64(crc32.Checksum(p, castagnoli)) },
	}
	const rows, cols, elem = 96, 40, 8
	token := uint64(0)
	for version := wire.MinVersion; version <= wire.Version; version++ {
		sum := sums[version]
		for _, flags := range []uint32{0, wire.FlagSpill} {
			token++
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			ack, err := helloVersion(conn, version)
			if err != nil {
				t.Fatalf("v%d handshake: %v", version, err)
			}
			if ack.Version != version {
				t.Fatalf("v%d hello acked as version %d", version, ack.Version)
			}
			data := randBytes(rows*cols*elem, int64(version)*10+int64(flags))
			want := refTransposeBytes(data, rows, cols, elem)
			res, got, err := rawJob(conn, wire.Job{Token: token, Rows: rows, Cols: cols, Elem: elem, Flags: flags}, data)
			conn.Close()
			if err != nil {
				t.Fatalf("v%d flags %d: %v", version, flags, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("v%d flags %d: wrong transpose", version, flags)
			}
			wantMode := wire.ModeMemory
			if flags&wire.FlagSpill != 0 {
				wantMode = wire.ModeSpill
			}
			if res.Mode != wantMode {
				t.Fatalf("v%d flags %d: mode %d, want %d", version, flags, res.Mode, wantMode)
			}
			if res.CRC != sum(want) {
				t.Fatalf("v%d flags %d (mode %d): result CRC %016x, want %016x", version, flags, res.Mode, res.CRC, sum(want))
			}
		}
	}
}

// TestUnknownHelloVersionRejected checks versions outside [MinVersion,
// Version] are still refused with CodeBadSequence.
func TestUnknownHelloVersionRejected(t *testing.T) {
	_, addr := startServer(t, Config{})
	for _, version := range []uint16{0, wire.Version + 1} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		var hdr [wire.HeaderLen]byte
		var hello [wire.HelloLen]byte
		wire.Hello{Version: version}.Marshal(&hello)
		if err := wire.WriteFrame(conn, &hdr, wire.TypeHello, hello[:]); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readControl(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("v%d: reading answer: %v", version, err)
		}
		var m wire.ErrorMsg
		if typ != wire.TypeError || m.Unmarshal(payload) != nil || m.Code != wire.CodeBadSequence {
			t.Fatalf("v%d hello answered with type %d %+v, want CodeBadSequence", version, typ, m)
		}
	}
}

// helloVersion performs the handshake at the given protocol version.
func helloVersion(conn net.Conn, version uint16) (wire.HelloAck, error) {
	var hdr [wire.HeaderLen]byte
	var hello [wire.HelloLen]byte
	wire.Hello{Version: version}.Marshal(&hello)
	var ack wire.HelloAck
	if err := wire.WriteFrame(conn, &hdr, wire.TypeHello, hello[:]); err != nil {
		return ack, err
	}
	typ, payload, err := readControl(conn)
	if err != nil {
		return ack, err
	}
	if typ != wire.TypeHelloAck {
		return ack, errBadSequence
	}
	return ack, ack.Unmarshal(payload)
}

// rawJob runs one job exchange over a bare conn and returns the Result
// header and the downloaded bytes.
func rawJob(conn net.Conn, job wire.Job, data []byte) (wire.Result, []byte, error) {
	var hdr [wire.HeaderLen]byte
	var res wire.Result
	var jb [wire.JobLen]byte
	job.Marshal(&jb)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeJob, jb[:]); err != nil {
		return res, nil, err
	}
	if typ, _, err := readControl(conn); err != nil || typ != wire.TypeAccept {
		return res, nil, errBadSequence
	}
	for off := 0; off < len(data); off += wire.DefaultMaxData {
		end := min(off+wire.DefaultMaxData, len(data))
		if err := wire.WriteFrame(conn, &hdr, wire.TypeData, data[off:end]); err != nil {
			return res, nil, err
		}
	}
	typ, payload, err := readControl(conn)
	if err != nil {
		return res, nil, err
	}
	if typ != wire.TypeResult {
		return res, nil, errBadSequence
	}
	if err := res.Unmarshal(payload); err != nil {
		return res, nil, err
	}
	var out []byte
	for {
		typ, payload, err := readControl(conn)
		if err != nil {
			return res, nil, err
		}
		if typ == wire.TypeDone {
			return res, out, nil
		}
		out = append(out, payload...)
	}
}
