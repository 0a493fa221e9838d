//go:build !race

package ooc

import "testing"

// TestWarmRunAllocs pins the allocations of a warm run on a memory
// backend: schedule, panel buffer, scratch lines and per-panel dispatch,
// with no pipeline goroutines or channels. The bench-gate baseline's
// ooc_membacked case runs the same shape through TransposeFile.
func TestWarmRunAllocs(t *testing.T) {
	const maxAllocs = 24
	data := &memBackend{b: make([]byte, 64*48*8)}
	rows, cols := 64, 48
	run := func() {
		if _, err := Run(data, Config{Rows: rows, Cols: cols, ElemSize: 8, Budget: int64(len(data.b)) / 4, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		rows, cols = cols, rows // the backend flips orientation every run
	}
	run()
	if got := testing.AllocsPerRun(20, run); got > maxAllocs {
		t.Fatalf("warm run allocates %v times, want <= %d", got, maxAllocs)
	}
}
