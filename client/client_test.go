package client

import (
	"bytes"
	"errors"
	"hash/crc32"
	"hash/crc64"
	"math/rand"
	"net"
	"testing"

	"inplace/internal/server"
	"inplace/internal/server/wire"
)

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// refTranspose is the naive byte-image transpose of a row-major
// rows×cols matrix of elem-byte elements.
func refTranspose(raw []byte, rows, cols, elem int) []byte {
	out := make([]byte, len(raw))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			copy(out[(c*rows+r)*elem:(c*rows+r+1)*elem], raw[(r*cols+c)*elem:(r*cols+c+1)*elem])
		}
	}
	return out
}

// TestRoundTripV2 transposes against an in-process daemon, in memory
// and spilled, on a session the server acks at the current version.
func TestRoundTripV2(t *testing.T) {
	srv, err := server.New(server.Config{SpillDir: t.TempDir(), OOCBudget: 64 << 10})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.ack.Version != wire.Version {
		t.Fatalf("session acked at version %d, want %d", c.ack.Version, wire.Version)
	}
	const rows, cols, elem = 72, 50, 4
	for _, flags := range []uint32{0, wire.FlagSpill} {
		data := randBytes(rows*cols*elem, int64(flags)+1)
		want := refTranspose(data, rows, cols, elem)
		if _, err := c.TransposeToken(NewToken(), data, rows, cols, elem, flags); err != nil {
			t.Fatalf("flags %d: %v", flags, err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("flags %d: wrong transpose", flags)
		}
	}
}

// fakeServer answers one handshake and one job on conn the way a
// daemon of the given version would, except that the Result announces
// crc and the bytes streamed back are result (the client checks only
// the framing and the checksum, so no transpose is needed).
func fakeServer(conn net.Conn, version uint16, result []byte, crc uint64) error {
	defer conn.Close()
	var hdr [wire.HeaderLen]byte
	var ctrl [wire.MaxControlFrame]byte
	read := func(want wire.Type) ([]byte, error) {
		typ, n, err := wire.ReadHeader(conn, &hdr, wire.DefaultMaxData)
		if err != nil {
			return nil, err
		}
		if typ != want {
			return nil, wire.ErrBadFrame
		}
		buf := ctrl[:n]
		if typ == wire.TypeData {
			buf = make([]byte, n)
		}
		return buf, wire.ReadPayload(conn, buf)
	}
	if _, err := read(wire.TypeHello); err != nil {
		return err
	}
	var ack [wire.HelloAckLen]byte
	wire.HelloAck{Version: version, MaxData: wire.DefaultMaxData, MemLimit: 1 << 20, Budget: 1 << 24}.Marshal(&ack)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeHelloAck, ack[:]); err != nil {
		return err
	}
	p, err := read(wire.TypeJob)
	if err != nil {
		return err
	}
	var job wire.Job
	if err := job.Unmarshal(p); err != nil {
		return err
	}
	var acc [wire.AcceptLen]byte
	wire.Accept{Token: job.Token, Mode: wire.ModeMemory}.Marshal(&acc)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeAccept, acc[:]); err != nil {
		return err
	}
	for got := 0; got < len(result); {
		p, err := read(wire.TypeData)
		if err != nil {
			return err
		}
		got += len(p)
	}
	var res [wire.ResultLen]byte
	wire.Result{Token: job.Token, Mode: wire.ModeMemory, CRC: crc}.Marshal(&res)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeResult, res[:]); err != nil {
		return err
	}
	if err := wire.WriteFrame(conn, &hdr, wire.TypeData, result); err != nil {
		return err
	}
	return wire.WriteFrame(conn, &hdr, wire.TypeDone, nil)
}

// fakeJob runs one Transpose against fakeServer over a net.Pipe and
// returns the client's error and the bytes it was left holding.
func fakeJob(t *testing.T, version uint16, result []byte, crc uint64) ([]byte, error) {
	t.Helper()
	cc, sc := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- fakeServer(sc, version, result, crc) }()
	c, err := newClient(cc)
	if err != nil {
		t.Fatalf("v%d handshake: %v", version, err)
	}
	defer c.Close()
	if c.ack.Version != version {
		t.Fatalf("client recorded ack version %d, want %d", c.ack.Version, version)
	}
	data := make([]byte, len(result))
	err = c.Transpose(data, 1, len(data), 1)
	if serr := <-srvErr; serr != nil {
		t.Fatalf("fake v%d server: %v", version, serr)
	}
	return data, err
}

var (
	crc64Ref = func(p []byte) uint64 { return crc64.Checksum(p, crc64.MakeTable(crc64.ECMA)) }
	crc32Ref = func(p []byte) uint64 { return uint64(crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli))) }
)

// TestSessionVersionChecksum runs a job against a fake daemon of each
// version. The result verifies only under the acked version's sum — an
// old server's v1 ack is honoured with CRC64 — and a result with one
// corrupted byte returns ErrChecksum on either version.
func TestSessionVersionChecksum(t *testing.T) {
	result := randBytes(3000, 9)
	for _, c := range []struct {
		version      uint16
		right, other func([]byte) uint64
	}{
		{1, crc64Ref, crc32Ref},
		{2, crc32Ref, crc64Ref},
	} {
		data, err := fakeJob(t, c.version, result, c.right(result))
		if err != nil {
			t.Fatalf("v%d: %v", c.version, err)
		}
		if !bytes.Equal(data, result) {
			t.Fatalf("v%d: client holds different bytes than were sent", c.version)
		}
		if _, err := fakeJob(t, c.version, result, c.other(result)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("v%d result summed with the other version's checksum: err = %v, want ErrChecksum", c.version, err)
		}
		corrupt := append([]byte(nil), result...)
		corrupt[len(corrupt)/3] ^= 0x10
		if _, err := fakeJob(t, c.version, corrupt, c.right(result)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("v%d corrupted result: err = %v, want ErrChecksum", c.version, err)
		}
	}
}

// TestUnknownAckVersion checks an ack outside [MinVersion, Version] is
// refused with wire.ErrBadVersion.
func TestUnknownAckVersion(t *testing.T) {
	for _, version := range []uint16{0, wire.Version + 1} {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fakeServer(sc, version, nil, 0) // fails once the client hangs up
		}()
		_, err := newClient(cc)
		<-done
		if !errors.Is(err, wire.ErrBadVersion) {
			t.Fatalf("ack version %d: err = %v, want ErrBadVersion", version, err)
		}
	}
}
