package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"inplace"
)

// The inmem workload: a seeded, fixed sequence of warm in-memory library
// calls. Each cycle runs every operation forward and back, in an order
// drawn from the seed, so buffers return to their source layout and the
// cycle repeats. The kernel does nearly all the work: no I/O, no
// checksums, no cold planning.

type inmemShape struct {
	largeR, largeC   int // roofline-sized uint64 matrix (coprime dims)
	cpR, cpC         int // coprime uint64 matrix that fits the LLC
	ncR, ncC         int // non-coprime float32 matrix
	skCount, skField int // skinny float32 AoS<->SoA
	nhwc             [4]int
	bCount, bR, bC   int // TransposeBatch of uint64 matrices
}

var (
	inmemFull = inmemShape{
		largeR: 12800, largeC: 12601,
		cpR: 4000, cpC: 3001,
		ncR: 3000, ncC: 4096,
		skCount: 1000000, skField: 4,
		nhwc:   [4]int{32, 64, 64, 32},
		bCount: 64, bR: 48, bC: 32,
	}
	inmemProbe = inmemShape{
		largeR: 1600, largeC: 1201,
		cpR: 1000, cpC: 751,
		ncR: 768, ncC: 1024,
		skCount: 100000, skField: 4,
		nhwc:   [4]int{8, 32, 32, 16},
		bCount: 64, bR: 48, bC: 32,
	}
)

// inmemOp is one operation of the cycle: a forward call that leaves the
// buffer in layout fwdMap, and a back call that restores the source
// layout.
type inmemOp struct {
	name      string // report name
	layer     string // span name of the library call
	bytes     int64
	n         int
	fwd, back func() error
	fwdMap    srcMap
	holds     func(p, src int) bool // element p holds source index src

	secs      []float64       // per measured call that returned no error
	calls     [2]int          // measured calls per direction (0 forward, 1 back)
	side      [2][2][]float64 // per direction: untraced, traced call secs
	mallocs   uint64          // during traced calls
	tracedOps int
}

// newOp builds an operation over a typed buffer whose source element i
// is want(i).
func newOp[T comparable](name, layer string, buf []T, elem int, want func(int) T, fwdMap srcMap, fwd, back func([]T) error) *inmemOp {
	return &inmemOp{
		name: name, layer: layer,
		bytes: int64(len(buf)) * int64(elem), n: len(buf),
		fwd:    func() error { return fwd(buf) },
		back:   func() error { return back(buf) },
		fwdMap: fwdMap,
		holds:  func(p, src int) bool { return buf[p] == want(src) },
	}
}

// inmemBufs holds the workload's buffers across setup repetitions.
type inmemBufs struct {
	large, cp, bat []uint64
	nc, sk, ten    []float32
}

func newInmemBufs(sh inmemShape) *inmemBufs {
	n, h, w, c := sh.nhwc[0], sh.nhwc[1], sh.nhwc[2], sh.nhwc[3]
	return &inmemBufs{
		large: make([]uint64, sh.largeR*sh.largeC),
		cp:    make([]uint64, sh.cpR*sh.cpC),
		bat:   make([]uint64, sh.bCount*sh.bR*sh.bC),
		nc:    make([]float32, sh.ncR*sh.ncC),
		sk:    make([]float32, sh.skCount*sh.skField),
		ten:   make([]float32, n*h*w*c),
	}
}

// bufSeed separates the buffers' value streams.
func bufSeed(seed uint64, k int) uint64 { return seed*16 + uint64(k) }

func (b *inmemBufs) fill(seed uint64) {
	fillU64(b.large, bufSeed(seed, 0))
	fillU64(b.cp, bufSeed(seed, 1))
	fillF32(b.nc, bufSeed(seed, 2))
	fillF32(b.sk, bufSeed(seed, 3))
	fillF32(b.ten, bufSeed(seed, 4))
	fillU64(b.bat, bufSeed(seed, 5))
}

// planner2D returns Execute functions of forward and back planners.
func planner2D[T any](rows, cols int, opts ...inplace.Options) (fwd, back func([]T) error, err error) {
	pf, err := inplace.NewPlanner[T](rows, cols, opts...)
	if err != nil {
		return nil, nil, err
	}
	pb, err := inplace.NewPlanner[T](cols, rows, opts...)
	if err != nil {
		return nil, nil, err
	}
	return pf.Execute, pb.Execute, nil
}

// buildInmemOps plans every operation over the buffers. It returns the
// operations in a fixed order (shuffled per cycle) and the permutation
// planner's pass count.
func buildInmemOps(sh inmemShape, b *inmemBufs, seed uint64) ([]*inmemOp, int, error) {
	u64 := func(k int) func(int) uint64 { s := bufSeed(seed, k); return func(i int) uint64 { return val(s, i) } }
	f32 := func(k int) func(int) float32 {
		s := bufSeed(seed, k)
		return func(i int) float32 { return valF32(s, i) }
	}

	lf, lb, err := planner2D[uint64](sh.largeR, sh.largeC)
	if err != nil {
		return nil, 0, err
	}
	cf, cb, err := planner2D[uint64](sh.cpR, sh.cpC)
	if err != nil {
		return nil, 0, err
	}
	nf, nb, err := planner2D[float32](sh.ncR, sh.ncC)
	if err != nil {
		return nil, 0, err
	}
	n, h, w, c := sh.nhwc[0], sh.nhwc[1], sh.nhwc[2], sh.nhwc[3]
	tf, err := inplace.NewPermutePlanner[float32]([]int{n, h, w, c}, []int{0, 3, 1, 2})
	if err != nil {
		return nil, 0, err
	}
	tb, err := inplace.NewPermutePlanner[float32]([]int{n, c, h, w}, []int{0, 2, 3, 1})
	if err != nil {
		return nil, 0, err
	}
	ops := []*inmemOp{
		newOp("large", "core.execute", b.large, 8, u64(0), transposed(sh.largeR, sh.largeC), lf, lb),
		newOp("coprime", "core.execute", b.cp, 8, u64(1), transposed(sh.cpR, sh.cpC), cf, cb),
		newOp("noncoprime", "core.execute", b.nc, 4, f32(2), transposed(sh.ncR, sh.ncC), nf, nb),
		newOp("skinny", "core.aos", b.sk, 4, f32(3), transposed(sh.skCount, sh.skField),
			func(d []float32) error { return inplace.AOSToSOA(d, sh.skCount, sh.skField) },
			func(d []float32) error { return inplace.SOAToAOS(d, sh.skCount, sh.skField) }),
		newOp("nhwc", "tensor.permute", b.ten, 4, f32(4), nhwcToNCHW(n, h, w, c), tf.Execute, tb.Execute),
		newOp("batch", "planner.batch", b.bat, 8, u64(5), batchTransposed(sh.bR, sh.bC),
			func(d []uint64) error { return inplace.TransposeBatch(d, sh.bCount, sh.bR, sh.bC) },
			func(d []uint64) error { return inplace.TransposeBatch(d, sh.bCount, sh.bC, sh.bR) }),
	}
	return ops, tf.Plan().Passes(), nil
}

// inmemCall times one call into the library and checks sampled
// positions of its output. traced calls also record a span and count
// the call's allocations.
func inmemCall(o *inmemOp, f func() error, m srcMap, rng *rand.Rand, tr *tracer, opID int64) (secs float64, err error, ok bool) {
	var ms runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms)
	}
	before := ms.Mallocs
	root := tr.begin("inmem.op", -1, opID)
	sp := tr.begin(o.layer, root, opID)
	t0 := time.Now()
	err = f()
	secs = time.Since(t0).Seconds()
	tr.end(sp)
	if tr != nil {
		runtime.ReadMemStats(&ms)
		o.mallocs += ms.Mallocs - before
		o.tracedOps++
	}
	ck := tr.begin("oracle.sample", root, opID)
	ok = err == nil && sampleOK(o.n, 64, rng, func(p int) bool { return o.holds(p, m(p)) })
	tr.end(ck)
	tr.end(root)
	return secs, err, ok
}

func runInmem(r *run) (*result, error) {
	sh := inmemFull
	if r.probe {
		sh = inmemProbe
	}
	res := newResult()
	rng := rand.New(rand.NewSource(int64(r.seed)))

	// Set-up: allocate and fill the buffers, build every planner.
	// Repeated inmemSetupReps times; the median is reported.
	var bufs *inmemBufs
	var ops []*inmemOp
	var passes int
	var setups []float64
	for rep := 0; rep < inmemSetupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		if bufs == nil {
			bufs = newInmemBufs(sh)
		}
		bufs.fill(r.seed)
		var err error
		ops, passes, err = buildInmemOps(sh, bufs, r.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	// cycle runs every operation forward and back in a seeded order;
	// the operations other than the large matrix run twice, so each
	// cycle gives them enough calls for a steady median. In a traced run
	// every other call of each operation and direction is traced,
	// starting with the first, so traced and untraced calls do the same
	// work and their times give the tracing overhead.
	cycle := func(k int, measure bool) {
		for _, i := range rng.Perm(len(ops)) {
			o := ops[i]
			reps := 2
			switch {
			case o == ops[0] && !measure:
				continue // the large matrix's cold cost is negligible next to one pass over it
			case o == ops[0] || !measure:
				reps = 1
			}
			for rep := 0; rep < reps; rep++ {
				for dir, f := range []func() error{o.fwd, o.back} {
					m := identity
					if dir == 0 {
						m = o.fwdMap
					}
					side, tr := 0, (*tracer)(nil)
					if measure && r.tr != nil && o.calls[dir]%2 == 0 {
						side, tr = 1, r.tr
					}
					s, err, ok := inmemCall(o, f, m, rng, tr, int64(k))
					res.op(err, ok)
					if measure {
						o.calls[dir]++
					}
					if measure && err == nil {
						o.secs = append(o.secs, s)
						o.side[dir][side] = append(o.side[dir][side], s)
					}
				}
			}
		}
	}

	// One warm-up cycle, then whole cycles while they fit the time.
	cacheBefore := inplace.PlannerCacheStats()
	cycle(-1, false)
	runCycles(r.seconds, func(k int) { cycle(k, true) })
	cacheAfter := inplace.PlannerCacheStats()

	// Every buffer is back in its source layout: compare all of it.
	for _, o := range ops {
		res.op(nil, fullOK(o.n, func(p int) bool { return o.holds(p, p) }))
	}

	res.note("inmem: large %dx%d uint64 = %s, coprime %dx%d uint64 = %s, non-coprime %dx%d float32 = %s, skinny %dx%d float32, NHWC %v float32, batch %dx(%dx%d) uint64; LLC %s",
		sh.largeR, sh.largeC, mib(ops[0].bytes), sh.cpR, sh.cpC, mib(ops[1].bytes), sh.ncR, sh.ncC, mib(ops[2].bytes),
		sh.skCount, sh.skField, sh.nhwc, sh.bCount, sh.bR, sh.bC, mib(llcBytes()))
	res.note("inmem: flush policy: none (no I/O)")

	var byType [][]float64
	var bytes, secs float64
	calls := 0
	for _, o := range ops {
		var ms []float64
		for _, s := range o.secs {
			ms = append(ms, s*1e3)
			bytes += float64(o.bytes)
			secs += s
		}
		byType = append(byType, ms)
		calls += len(ms)
		res.note("inmem: %-10s %s, %d calls, median %.3f ms", o.name, mib(o.bytes), len(ms), median(ms))
	}
	p50, slowest := typeLatency(byType)
	res.e2e["gbps"] = bytes / secs / 1e9
	res.e2e["p50_ms"] = p50
	res.e2e["p99_ms"] = slowest
	res.note("metric setup_s = %.4f s (%s)", res.e2e["setup_s"], setupNote(setups))
	res.note("metric xpose_gbps = %.4f GB/s (reported as gbps; %d timed calls)", res.e2e["gbps"], calls)
	res.note("metric typical_call_ms = %.4f ms (reported as p50_ms; geometric mean over %d operation types of each type's median call; n=%d calls)", p50, len(ops), calls)
	res.note("metric slowest_call_ms = %.4f ms (reported as p99_ms; the slowest type's median call: %d to %d calls per type are too few for a sampled p99)", slowest, len(ops[0].secs), len(ops[1].secs))

	if r.tr == nil {
		return res, nil
	}

	// Per-layer metrics.
	gb := func(o *inmemOp) float64 {
		var s float64
		for _, x := range o.secs {
			s += x
		}
		return float64(o.bytes) * float64(len(o.secs)) / s / 1e9
	}
	perOp := func(os ...*inmemOp) float64 {
		var m uint64
		var n int
		for _, o := range os {
			m += o.mallocs
			n += o.tracedOps
		}
		return ratio(float64(m), float64(n))
	}
	large, cp, nc, sk, ten, bat := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5]
	L := res.layer
	L["core.large_gbps"] = gb(large)
	L["core.coprime_gbps"] = gb(cp)
	L["core.noncoprime_gbps"] = gb(nc)
	L["core.skinny_gbps"] = gb(sk)
	L["core.allocs_per_op"] = perOp(large, cp, nc, sk)
	pc := 2
	if gcd(sh.largeR, sh.largeC) > 1 {
		pc = 3
	}
	L["core.bytes_moved_computed"] = float64(int64(pc) * 2 * large.bytes)
	L["tensor.nhwc_gbps"] = gb(ten)
	L["tensor.allocs_per_op"] = perOp(ten)
	L["tensor.passes"] = float64(passes)
	L["planner.batch_gbps"] = gb(bat)
	L["planner.batch_allocs_per_op"] = perOp(bat)
	L["planner.cache_hit_ratio"] = ratio(float64(cacheAfter.Hits-cacheBefore.Hits), float64(cacheAfter.Hits-cacheBefore.Hits+cacheAfter.Misses-cacheBefore.Misses))
	L["planner.cache_evictions"] = float64(cacheAfter.Evictions - cacheBefore.Evictions)
	cow, err := coldOverWarm([][2]int{{sh.cpR, sh.cpC}, {sh.ncR, sh.ncC}, {sh.bR, sh.bC}}, r.seed)
	if err != nil {
		return nil, err
	}
	L["planner.first_exec_over_warm"] = cow
	// Tracing overhead: one traced call of every operation and
	// direction against one untraced call, each the class's median.
	var untr, trc float64
	for _, o := range ops {
		for _, sd := range o.side {
			if len(sd[0]) > 0 && len(sd[1]) > 0 {
				untr += median(sd[0])
				trc += median(sd[1])
			}
		}
	}
	L["trace.overhead_frac"] = trc/untr - 1
	res.note("layer core.bytes_moved_computed = %d passes x 2 x %d bytes (computed from gcd(%d,%d), not measured)", pc, large.bytes, sh.largeR, sh.largeC)

	// Worker scaling on the coprime shape: one and two workers,
	// alternated, forward and back.
	var wb [2]float64
	var ws [2]float64
	for rep := 0; rep < 5; rep++ {
		for wi, workers := range []int{1, 2} {
			f, b, err := planner2D[uint64](sh.cpR, sh.cpC, inplace.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			for dir, call := range []func([]uint64) error{f, b} {
				sp := r.tr.begin("parallel.execute", -1, int64(workers))
				t0 := time.Now()
				err := call(bufs.cp)
				secs := time.Since(t0).Seconds()
				r.tr.end(sp)
				if err == nil {
					ws[wi] += secs
					wb[wi] += float64(cp.bytes)
				}
				m := identity
				if dir == 0 {
					m = cp.fwdMap
				}
				res.op(err, err == nil && sampleOK(cp.n, 64, rng, func(p int) bool { return cp.holds(p, m(p)) }))
			}
		}
	}
	L["parallel.scaling_2w"] = (wb[1] / ws[1]) / (wb[0] / ws[0])

	// Copy roofline between the halves of the large buffer (its
	// contents are no longer needed).
	half := len(bufs.large) / 2
	var cs []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		copy(bufs.large[:half], bufs.large[half:2*half])
		cs = append(cs, time.Since(t0).Seconds())
	}
	L["roofline.copy_gbps"] = float64(half*8) / median(cs) / 1e9
	L["core.roofline_frac"] = L["core.large_gbps"] / L["roofline.copy_gbps"]
	res.note("layer trace overhead: one median call of each operation and direction takes %.4f s untraced, %.4f s traced", untr, trc)
	return res, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// coldOverWarm is the planner's cold-to-warm cost: for each rows×cols
// shape, a uint64 Transpose right after the process plan cache was
// flushed (the plan is built) and the same call again (served from the
// cache), as the ratio of their medians. The cache is flushed through
// ClearWisdom, which with no wisdom loaded changes nothing else.
func coldOverWarm(shapes [][2]int, seed uint64) (float64, error) {
	var cold, warm []float64
	for i, s := range shapes {
		buf := make([]uint64, s[0]*s[1])
		fillU64(buf, bufSeed(seed, 8+i))
		inplace.ClearWisdom()
		for k, rc := range [][2]int{{s[0], s[1]}, {s[1], s[0]}, {s[0], s[1]}, {s[1], s[0]}} {
			t0 := time.Now()
			if err := inplace.Transpose(buf, rc[0], rc[1]); err != nil {
				return 0, fmt.Errorf("cold/warm probe %dx%d: %w", rc[0], rc[1], err)
			}
			d := time.Since(t0).Seconds()
			switch {
			case k == 0:
				cold = append(cold, d)
			case k >= 2:
				warm = append(warm, d)
			}
		}
	}
	return median(cold) / median(warm), nil
}
