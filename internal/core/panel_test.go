package core

import (
	"fmt"
	"testing"
	"unsafe"

	"inplace/internal/cr"
	"inplace/internal/mathutil"
)

// TestPanelExhaustiveSmall runs the cache-aware panel pipeline on every
// shape up to 17×17, in both directions, against the naive out-of-place
// transpose: coprime and non-coprime shapes, m = 1, panels of one
// column, of an odd width, and of the default width (wider than every n
// here, so clamped to n), each with one and three workers.
func TestPanelExhaustiveSmall(t *testing.T) {
	for m := 1; m <= 17; m++ {
		for n := 1; n <= 17; n++ {
			plan := cr.NewPlan(m, n)
			for _, bw := range []int{1, 3, 0} {
				for _, workers := range []int{1, 3} {
					o := Opts{Variant: CacheAware, BlockW: bw, Workers: workers}
					name := fmt.Sprintf("%dx%d/bw%d/w%d", m, n, bw, workers)

					data := seqSlice(m * n)
					want := make([]int, m*n)
					OutOfPlace(want, data, m, n)
					C2R(data, plan, o)
					if !equalSlices(data, want) {
						t.Fatalf("%s: C2R wrong\n got %v\nwant %v", name, data, want)
					}

					data = seqSlice(m * n) // row-major n×m input
					OutOfPlace(want, data, n, m)
					R2C(data, plan, o)
					if !equalSlices(data, want) {
						t.Fatalf("%s: R2C wrong\n got %v\nwant %v", name, data, want)
					}
				}
			}
		}
	}
}

// TestPanelPreSkipsUnrotatedPanels checks the pre-rotation's shortcut:
// the rotation amount ⌊j/b⌋ is zero on the first b columns, so a panel
// covering only those is left alone.
func TestPanelPreSkipsUnrotatedPanels(t *testing.T) {
	m, n := 12, 18 // gcd 6, b = 3
	plan := cr.NewPlan(m, n)
	data := seqSlice(m * n)
	fr := frame[int]{buf: make([]int, m*plan.B)}
	for i := range fr.buf {
		fr.buf[i] = -1
	}
	panelRange(data, plan, plan.B, panelPre, &fr, 0, 1)
	if !equalSlices(data, seqSlice(m*n)) {
		t.Fatal("the zero-amount pre-rotation panel moved data")
	}
	if fr.buf[0] != -1 {
		t.Fatal("the zero-amount pre-rotation panel used the panel buffer")
	}
	// The next panel rotates by one.
	panelRange(data, plan, plan.B, panelPre, &fr, 1, 2)
	for i := 0; i < m; i++ {
		for j := plan.B; j < 2*plan.B; j++ {
			if want := ((i+1)%m)*n + j; data[i*n+j] != want {
				t.Fatalf("(%d,%d) = %d, want %d", i, j, data[i*n+j], want)
			}
		}
	}
}

// TestScratchBytesBoundsFrames executes every variant on shapes that
// exercise each scratch path — line buffers, panels with a narrow last
// chunk, skinny band snapshots, panel narrowing under a cap — and checks
// that the scratch an execution holds never exceeds the schedule's
// reported ScratchBytes. Every pass slices its line or panel out of the
// frame's buffer, so a pass needing more than the schedule lent would
// panic here.
func TestScratchBytesBoundsFrames(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 40}, {40, 1}, {17, 9}, {64, 130}, {130, 64}, {96, 120}, {5000, 4}, {4, 5000}, {4100, 8}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		plan := cr.NewPlan(m, n)
		for _, v := range allVariants {
			for _, workers := range []int{1, 2, 3} {
				for _, maxScratch := range []int64{0, 1, int64(64 * m)} {
					o := Opts{Variant: v, Workers: workers, MaxScratch: maxScratch}
					s := NewSchedule(plan, o, 8)
					e := NewEngine[uint64](s)
					data := make([]uint64, m*n)
					for i := range data {
						data[i] = uint64(i)
					}
					st := e.acquire()
					e.c2r(data, st)
					e.r2c(data, st)
					got, want := stateBytes(st), s.ScratchBytes()
					e.release(st)
					for i := range data {
						if data[i] != uint64(i) {
							t.Fatalf("%dx%d %v workers %d cap %d: R2C did not invert C2R", m, n, v, workers, maxScratch)
						}
					}
					if got > want {
						t.Errorf("%dx%d %v workers %d cap %d: execution holds %d scratch bytes, ScratchBytes reports %d",
							m, n, v, workers, maxScratch, got, want)
					}
					if maxScratch > 0 && s.usesPanels() && s.panelW > 1 && want > maxScratch {
						t.Errorf("%dx%d %v workers %d: panel width %d left scratch %d above the cap %d",
							m, n, v, workers, s.panelW, want, maxScratch)
					}
				}
			}
		}
	}
}

// stateBytes sums the scratch an execution state holds: the frames'
// lent buffers, their offset arrays and the band snapshots.
func stateBytes(st *execState[uint64]) int64 {
	var elems, ints int64
	for i := range st.frames {
		elems += int64(len(st.frames[i].buf))
		ints += int64(cap(st.frames[i].off))
	}
	for _, slabs := range [][][]uint64{st.savedPre, st.savedRot} {
		for _, b := range slabs {
			elems += int64(cap(b))
		}
	}
	return elems*8 + ints*int64(unsafe.Sizeof(int(0)))
}

// TestPanelWidthDefault pins the derived width: a 512-byte panel row,
// clamped to [8, n].
func TestPanelWidthDefault(t *testing.T) {
	cases := []struct{ blockW, elem, n, want int }{
		{0, 8, 12800, 64},
		{0, 4, 4096, 128},
		{0, 1, 1 << 20, 512},
		{0, 128, 1000, 8},
		{0, 8, 48, 48},
		{0, 8, 5, 5},
		{3, 8, 100, 3},
		{200, 8, 100, 100},
	}
	for _, c := range cases {
		if got := panelWidth(c.blockW, c.elem, c.n); got != c.want {
			t.Errorf("panelWidth(%d, %d, %d) = %d, want %d", c.blockW, c.elem, c.n, got, c.want)
		}
	}
}

// TestQStepMatchesPlan checks the incremental walk of q against
// Equation 33 on coprime and non-coprime shapes.
func TestQStepMatchesPlan(t *testing.T) {
	for m := 1; m <= 30; m++ {
		for n := 1; n <= 30; n++ {
			plan := cr.NewPlan(m, n)
			q := newQStep(plan)
			for i := 0; i < m; i++ {
				if q.i != plan.Q(i) {
					t.Fatalf("%dx%d: q(%d) = %d, want %d (gcd %d)", m, n, i, q.i, plan.Q(i), mathutil.GCD(m, n))
				}
				q.next()
			}
		}
	}
}
