package core

import (
	"fmt"
	"testing"

	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
	"inplace/internal/perm"
)

// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// Each pair isolates one optimization of the paper's Section 4 so its
// effect can be measured in isolation.

func benchC2RVariant(b *testing.B, v Variant, m, n, workers int) {
	plan := cr.NewPlan(m, n)
	data := make([]uint64, m*n)
	for i := range data {
		data[i] = uint64(i)
	}
	b.SetBytes(int64(2 * m * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		C2R(data, plan, Opts{Variant: v, Workers: workers})
	}
}

// Gather-only vs scatter row shuffle (§4.2): the two formulations of
// Algorithm 1's middle pass.
func BenchmarkAblationGatherVsScatter(b *testing.B) {
	for _, sh := range [][2]int{{512, 512}, {384, 768}} {
		b.Run(fmt.Sprintf("scatter-%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchC2RVariant(b, Scatter, sh[0], sh[1], 1)
		})
		b.Run(fmt.Sprintf("gather-%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchC2RVariant(b, Gather, sh[0], sh[1], 1)
		})
	}
}

// Cache-aware coarse/fine rotation + cycle-following row permute (§4.6,
// §4.7) vs the naive per-column passes.
func BenchmarkAblationCacheAwareColumnOps(b *testing.B) {
	for _, sh := range [][2]int{{768, 768}, {1024, 512}} {
		b.Run(fmt.Sprintf("naive-%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchC2RVariant(b, Gather, sh[0], sh[1], 1)
		})
		b.Run(fmt.Sprintf("cacheaware-%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchC2RVariant(b, CacheAware, sh[0], sh[1], 1)
		})
	}
}

// Skinny fused band sweeps (§6.1) vs the general engines on AoS shapes.
func BenchmarkAblationSkinny(b *testing.B) {
	m, n := 100_000, 8
	for _, v := range []Variant{Gather, CacheAware, Skinny} {
		b.Run(v.String(), func(b *testing.B) {
			benchC2RVariant(b, v, m, n, 1)
		})
	}
}

// ablationSubRowW is the sub-row width of the coarse/fine and
// cycle-following baselines: one 64-byte cache line of uint64.
const ablationSubRowW = 8

// panelFrame returns a frame with the default uint64 panel of plan.
func panelFrame(plan *cr.Plan) *frame[uint64] {
	return &frame[uint64]{buf: make([]uint64, plan.M*panelWidth(0, 8, plan.N))}
}

// panelPass runs one panel pass over every panel with one worker: the
// engine's own kernel, with fr from panelFrame.
func panelPass(data []uint64, plan *cr.Plan, op panelOp, fr *frame[uint64]) {
	pw := panelWidth(0, 8, plan.N)
	panelRange(data, plan, pw, op, fr, 0, (plan.N+pw-1)/pw)
}

// Rotation primitives (§4.6): per-element strided rotation, whole
// sub-row chunk rotation with analytic cycles (coarse/fine), and the
// panel gather the cache-aware engine runs. 2048×512 has b = n/gcd = 1,
// so the engine's pre-rotation by ⌊j/b⌋ is the same rotation by j the
// other two cases apply.
func BenchmarkAblationRotate(b *testing.B) {
	m, n := 2048, 512
	plan := cr.NewPlan(m, n)
	data := make([]uint64, m*n)
	b.Run("naive-per-column", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rotateColumnsGather(data, m, n, func(j int) int { return j }, 1)
		}
	})
	b.Run("coarse-fine", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rotateColumnsCacheAware(data, m, n, func(j int) int { return j }, ablationSubRowW, 1)
		}
	})
	b.Run("panel-gather", func(b *testing.B) {
		fr := panelFrame(plan)
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			panelPass(data, plan, panelPre, fr)
		}
	})
}

// Row permutation (§4.7): per-column gather, whole-sub-row cycle
// following, and the panel gather's whole-panel-row copies.
func BenchmarkAblationRowPermute(b *testing.B) {
	m, n := 2048, 512
	plan := cr.NewPlan(m, n)
	data := make([]uint64, m*n)
	b.Run("naive-per-column", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rowPermuteGatherNaive(data, m, n, plan.Q, 1)
		}
	})
	b.Run("cycle-following", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rowPermuteCycles(data, m, n, plan.Q, ablationSubRowW, 1)
		}
	})
	b.Run("panel-gather", func(b *testing.B) {
		pw := panelWidth(0, 8, n)
		fr := panelFrame(plan)
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			for j0 := 0; j0 < n; j0 += pw {
				w := min(pw, n-j0)
				buf := fr.elems(m * w)
				for r := 0; r < m; r++ {
					copy(buf[r*w:r*w+w], data[r*n+j0:r*n+j0+w])
				}
				panelRowsOut(data, buf, plan, true, j0, w)
			}
		}
	})
}

// The column shuffle (Equations 32–33) as the cache-aware engine ran it
// before the panel passes — a coarse/fine rotation by j, then a
// cycle-following row permute by q — against the fused panel gather.
func BenchmarkAblationColumnShuffle(b *testing.B) {
	for _, sh := range [][2]int{{2048, 511}, {3001, 4000}} {
		m, n := sh[0], sh[1]
		plan := cr.NewPlan(m, n)
		data := make([]uint64, m*n)
		b.Run(fmt.Sprintf("rotate-then-permute-%dx%d", m, n), func(b *testing.B) {
			b.SetBytes(int64(2 * m * n * 8))
			for i := 0; i < b.N; i++ {
				rotateColumnsCacheAware(data, m, n, func(j int) int { return j }, ablationSubRowW, 1)
				rowPermuteCycles(data, m, n, plan.Q, ablationSubRowW, 1)
			}
		})
		b.Run(fmt.Sprintf("panel-gather-%dx%d", m, n), func(b *testing.B) {
			fr := panelFrame(plan)
			b.SetBytes(int64(2 * m * n * 8))
			for i := 0; i < b.N; i++ {
				panelPass(data, plan, panelC2R, fr)
			}
		})
	}
}

// Panel width of the cache-aware column passes: the default is a
// 512-byte panel row (64 uint64); narrower panels make shorter row
// copies, wider ones a larger scratch panel per worker.
func BenchmarkAblationBlockW(b *testing.B) {
	m, n := 1024, 1024
	for _, bw := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("bw%d", bw), func(b *testing.B) {
			plan := cr.NewPlan(m, n)
			data := make([]uint64, m*n)
			b.SetBytes(int64(2 * m * n * 8))
			for i := 0; i < b.N; i++ {
				C2R(data, plan, Opts{Variant: CacheAware, BlockW: bw, Workers: 1})
			}
		})
	}
}

// Parallel scaling of the decomposed passes (perfect load balance claim):
// compare 1 worker against GOMAXPROCS workers.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, w := range []int{1, 0} {
		name := "gomaxprocs"
		if w == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			benchC2RVariant(b, CacheAware, 1024, 768, w)
		})
	}
}

// --- The pre-panel cache-aware column operations (§4.6, §4.7) ---
//
// Column rotations split into a coarse phase — rotating whole
// cache-line-wide sub-rows by a per-group common amount via the analytic
// rotation cycles — and a fine phase that applies the small residual
// rotations with a single forward sweep over bounded-lookahead bands.
// The row permute moves whole sub-rows along the cycles of q. The
// engine replaced both with panel passes; they remain as the baselines
// of the ablation benchmarks above.

// rotateGroupsRange rotates column j up by amount(j) for every column of
// the groups [glo, ghi) of blockW adjacent columns: a coarse
// whole-sub-row rotation by a group-common amount followed by a fine
// forward sweep applying the bounded residuals.
func rotateGroupsRange[T any](data []T, m, n int, amount func(j int) int, divM mathutil.Divider, blockW, glo, ghi int) {
	am := make([]int, blockW)
	res := make([]int, blockW)
	spare := make([]T, blockW)
	var saved []T
	for g := glo; g < ghi; g++ {
		j0 := g * blockW
		j1 := min(j0+blockW, n)
		w := j1 - j0
		for j := j0; j < j1; j++ {
			am[j-j0] = divM.SMod(amount(j))
		}
		// Pick the coarse amount so that every residual (am - k) mod m
		// stays below the band bound. The rotation amounts are monotone
		// across a group, so either endpoint works; fall back to
		// per-column rotation otherwise (only for degenerate tiny m).
		band := 0
		ok := false
		var k int
		for _, cand := range [2]int{am[0], am[w-1]} {
			k = cand
			band = 0
			ok = true
			for jj := 0; jj < w; jj++ {
				r := am[jj] - k
				if r < 0 {
					r += m
				}
				res[jj] = r
				band = max(band, r)
			}
			if band < m && band <= 2*blockW {
				break
			}
			ok = false
		}
		if !ok {
			for jj := 0; jj < w; jj++ {
				perm.RotateStrided(data, j0+jj, n, m, am[jj])
			}
			continue
		}
		if k != 0 {
			perm.RotateChunksStrided(data, j0, n, w, m, k, spare)
		}
		if band == 0 {
			continue
		}
		// Fine phase: forward sweep, out[i][j] = in[(i+res)%m][j].
		// Writing row i only consumes rows >= i, except wrapped reads
		// near the bottom, which come from the saved head band.
		if cap(saved) < band*w {
			saved = make([]T, band*w)
		}
		saved = saved[:band*w]
		for r := 0; r < band; r++ {
			copy(saved[r*w:r*w+w], data[r*n+j0:r*n+j1])
		}
		for i := 0; i < m; i++ {
			row := data[i*n+j0 : i*n+j1]
			for jj := 0; jj < w; jj++ {
				sr := i + res[jj]
				if sr < m {
					row[jj] = data[sr*n+j0+jj]
				} else {
					row[jj] = saved[(sr-m)*w+jj]
				}
			}
		}
	}
}

// rotateColumnsCacheAware is the parallel coarse/fine rotation.
func rotateColumnsCacheAware[T any](data []T, m, n int, amount func(j int) int, blockW, workers int) {
	if m <= 1 || n == 0 {
		return
	}
	divM := mathutil.NewDivider(m)
	parallel.For((n+blockW-1)/blockW, workers, func(_, glo, ghi int) {
		rotateGroupsRange(data, m, n, amount, divM, blockW, glo, ghi)
	})
}

// rowPermuteCycles permutes whole rows, out[i] = in[permf(i)], by
// following the cycles of the permutation with whole-sub-row moves:
// wide matrices parallelize across column groups, narrow ones across
// cycles.
func rowPermuteCycles[T any](data []T, m, n int, permf func(i int) int, blockW, workers int) {
	if m <= 1 || n == 0 {
		return
	}
	p := perm.FromFunc(m, permf)
	leaders, lengths := p.Leaders()
	if len(leaders) == 0 {
		return
	}
	if n >= parallel.Workers(workers)*blockW || len(leaders) == 1 {
		parallel.For((n+blockW-1)/blockW, workers, func(_, glo, ghi int) {
			spare := make([]T, blockW)
			for g := glo; g < ghi; g++ {
				j0 := g * blockW
				perm.GatherChunksStrided(data, j0, n, min(blockW, n-j0), p, leaders, lengths, spare)
			}
		})
		return
	}
	parallel.For(len(leaders), workers, func(_, lo, hi int) {
		rowCyclesRange(data, n, p, leaders[lo:hi], lengths[lo:hi], make([]T, n))
	})
}

// TestAblationBaselinesMatchEngine keeps the baselines honest: the
// coarse/fine rotation by j followed by the cycle-following permute by
// q is the column shuffle, so it must agree with the fused panel pass.
func TestAblationBaselinesMatchEngine(t *testing.T) {
	for _, sh := range [][2]int{{37, 50}, {64, 48}, {5, 200}, {120, 7}} {
		m, n := sh[0], sh[1]
		plan := cr.NewPlan(m, n)
		a := make([]uint64, m*n)
		for i := range a {
			a[i] = uint64(i)
		}
		b := append([]uint64(nil), a...)
		for _, workers := range []int{1, 3} {
			rotateColumnsCacheAware(a, m, n, func(j int) int { return j }, ablationSubRowW, workers)
			rowPermuteCycles(a, m, n, plan.Q, ablationSubRowW, workers)
			panelPass(b, plan, panelC2R, panelFrame(plan))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%dx%d workers %d: baselines differ from the panel pass at %d", m, n, workers, i)
				}
			}
		}
	}
}
