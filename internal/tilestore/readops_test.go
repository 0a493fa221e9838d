package tilestore

import (
	"testing"

	"inplace/internal/ooc"
	"inplace/internal/stats"
)

// TestColdBlockReadIsOneReadOp: a block-cache miss loads its segment's
// frame header and payload with one backend read, so a cold projection
// of k blocks adds exactly k read ops, and a warm repeat adds none.
func TestColdBlockReadIsOneReadOp(t *testing.T) {
	s := Schema{Rows: 100, Fields: 5, ElemSize: 4, ChunkRows: 32} // 4 chunks, the last short
	aos := makeAoS(s.Rows, s.Fields, s.ElemSize)
	d, _ := buildDataset(t, s, aos, Options{Registry: stats.NewRegistry()})
	cols := []int{1, 3}
	dst := make([]byte, s.Rows*len(cols)*s.ElemSize)

	before := d.Stats()
	if err := d.Project(dst, cols, 0, s.Rows); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	k := uint64(d.Chunks() * len(cols))
	if got := after.ReadOps - before.ReadOps; got != k {
		t.Fatalf("cold projection of %d blocks made %d read ops, want %d", k, got, k)
	}
	wantBytes := k*ooc.FrameHeaderSize + uint64(s.Rows*len(cols)*s.ElemSize)
	if got := after.BytesRead - before.BytesRead; got != wantBytes {
		t.Fatalf("cold projection read %d bytes, want %d (headers and payloads)", got, wantBytes)
	}
	if err := d.Project(dst, cols, 0, s.Rows); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().ReadOps - after.ReadOps; got != 0 {
		t.Fatalf("warm projection made %d read ops, want 0", got)
	}
}
