package core

import (
	"fmt"

	"inplace/internal/arena"
	"inplace/internal/cr"
)

// Engine binds a Schedule to an element type: it owns the recycled
// scratch states and the prebuilt band-sweep row functions, and executes
// the C2R/R2C pipelines with zero steady-state allocations. One Engine
// may execute concurrently on distinct buffers; each execution draws a
// private state from the arena.
type Engine[T any] struct {
	s      *Schedule
	states *arena.Pool[execState[T]]
	bufs   *arena.Buffers[T] // frame buffers, borrowed per execution

	// Skinny band-sweep row producers, built once per engine so
	// executions do not re-capture the plan constants.
	c2r1, c2r2, r2c2, r2c3 bandRowFunc[T]
}

// NewEngine builds the typed half of an execution plan. The schedule
// must have been built for T's size.
func NewEngine[T any](s *Schedule) *Engine[T] {
	if sz := sizeOf[T](); sz != s.elemSize {
		panic(fmt.Sprintf("core: schedule built for %d-byte elements, engine element is %d bytes", s.elemSize, sz))
	}
	e := &Engine[T]{s: s, bufs: arena.BuffersFor[T]()}
	e.states = arena.NewPool(func() *execState[T] { return newExecState(e) })
	if s.Opts.Variant == Skinny && s.skinnyOK {
		e.c2r1 = skinnyC2RPass1[T](s.Plan)
		e.c2r2 = skinnyC2RPass2[T](s.Plan)
		e.r2c2 = skinnyR2CPass2[T](s.Plan)
		e.r2c3 = skinnyR2CPass3[T](s.Plan)
	}
	return e
}

// Schedule returns the shared untyped half of the plan.
func (e *Engine[T]) Schedule() *Schedule { return e.s }

// badLenMsg builds the buffer-length panic message. Kept out of line so
// the hot entry points contain no fmt machinery.
func badLenMsg(op string, n int, p *cr.Plan) string {
	return fmt.Sprintf("core: %s buffer length %d does not match %v", op, n, p)
}

// C2R performs the in-place C2R transposition of the flat row-major
// m×n array described by the schedule's plan (see the package-level C2R).
//
//xpose:hotpath
func (e *Engine[T]) C2R(data []T) {
	if len(data) != e.s.Plan.Size {
		panic(badLenMsg("C2R", len(data), e.s.Plan))
	}
	st := e.acquire()
	defer e.release(st)
	e.c2r(data, st)
}

// R2C performs the in-place R2C transposition, the exact inverse of C2R.
//
//xpose:hotpath
func (e *Engine[T]) R2C(data []T) {
	if len(data) != e.s.Plan.Size {
		panic(badLenMsg("R2C", len(data), e.s.Plan))
	}
	st := e.acquire()
	defer e.release(st)
	e.r2c(data, st)
}

// acquire draws an execution state from the arena and lends each of its
// frames a buffer of the frame's scratch need.
func (e *Engine[T]) acquire() *execState[T] {
	st := e.states.Get()
	for w, need := range e.s.frameElems {
		if need > 0 {
			fr := &st.frames[w]
			fr.box = e.bufs.Get(need)
			fr.buf = (*fr.box)[:need]
		}
	}
	return st
}

// release returns the frames' buffers and the state.
func (e *Engine[T]) release(st *execState[T]) {
	for w := range st.frames {
		fr := &st.frames[w]
		if fr.box != nil {
			e.bufs.Put(fr.box)
			fr.box, fr.buf = nil, nil
		}
	}
	e.states.Put(st)
}

// c2r runs the C2R pipeline of the schedule's variant with scratch st.
func (e *Engine[T]) c2r(data []T, st *execState[T]) {
	switch e.s.Opts.Variant {
	case Scatter:
		e.c2rAlg1(data, st, kRowScatter)
	case Gather:
		e.c2rAlg1(data, st, kRowGather)
	case CacheAware:
		e.c2rCacheAware(data, st)
	case Skinny:
		e.c2rSkinny(data, st)
	default:
		panic("core: unknown variant " + e.s.Opts.Variant.String())
	}
}

// r2c runs the R2C pipeline of the schedule's variant with scratch st.
func (e *Engine[T]) r2c(data []T, st *execState[T]) {
	switch e.s.Opts.Variant {
	case Scatter, Gather:
		e.r2cAlg1(data, st)
	case CacheAware:
		e.r2cCacheAware(data, st)
	case Skinny:
		e.r2cSkinny(data, st)
	default:
		panic("core: unknown variant " + e.s.Opts.Variant.String())
	}
}

// --- Pipelines ---

// c2rAlg1 is Algorithm 1: pre-rotate (if gcd > 1), row shuffle, gather
// column shuffle. The row shuffle is a scatter (Scatter) or the
// gather-only formulation through the closed-form inverse d'^{-1}
// (Gather, §5.1).
func (e *Engine[T]) c2rAlg1(data []T, st *execState[T], row kernel) {
	s := e.s
	if !s.Plan.Coprime {
		e.run(st, s.boundsN, pass[T]{k: kRotate, data: data, fn: s.rotFn})
	}
	e.run(st, s.boundsM, pass[T]{k: row, data: data})
	e.run(st, s.boundsN, pass[T]{k: kColShuffle, data: data})
}

// r2cAlg1 inverts Algorithm 1 pass by pass: the column shuffle
// s' = p∘q inverts as a q^{-1} row permute followed by a p^{-1} rotation,
// the row shuffle inverts as a gather with d', and the pre-rotation
// inverts as a gather with r^{-1} (§4.3). The R2C direction is
// naturally gather-only, so Scatter and Gather share it.
func (e *Engine[T]) r2cAlg1(data []T, st *execState[T]) {
	s := e.s
	e.run(st, s.boundsN, pass[T]{k: kPermuteNaive, data: data, fn: s.qInvFn})
	e.run(st, s.boundsN, pass[T]{k: kRotate, data: data, fn: s.negIDFn})
	e.run(st, s.boundsM, pass[T]{k: kRowGatherD, data: data})
	if !s.Plan.Coprime {
		e.run(st, s.boundsN, pass[T]{k: kRotate, data: data, fn: s.negRotFn})
	}
}

// c2rCacheAware composes the C2R transpose from panel passes: the
// pre-rotation (gcd > 1), the incremental row shuffle, and the column
// shuffle with its rotation p_j and row permutation q (Equations 32–33)
// fused into one gather, out[i][j] = in[(q(i)+j) mod m][j].
func (e *Engine[T]) c2rCacheAware(data []T, st *execState[T]) {
	s := e.s
	if !s.Plan.Coprime {
		e.run(st, s.boundsPanels, pass[T]{k: kPanel, data: data, op: panelPre})
	}
	e.run(st, s.boundsM, pass[T]{k: kRowScatterInc, data: data})
	e.run(st, s.boundsPanels, pass[T]{k: kPanel, data: data, op: panelC2R})
}

// r2cCacheAware inverts the cache-aware C2R pass by pass (§4.3).
func (e *Engine[T]) r2cCacheAware(data []T, st *execState[T]) {
	s := e.s
	e.run(st, s.boundsPanels, pass[T]{k: kPanel, data: data, op: panelR2C})
	e.run(st, s.boundsM, pass[T]{k: kRowGatherDInc, data: data})
	if !s.Plan.Coprime {
		e.run(st, s.boundsPanels, pass[T]{k: kPanel, data: data, op: panelPost})
	}
}

// c2rSkinny performs the C2R transpose with the skinny pass structure
// (§6.1): fused pre-rotation + row shuffle, the p_j rotation, then the
// whole-row permutation q — the first two as forward band sweeps.
func (e *Engine[T]) c2rSkinny(data []T, st *execState[T]) {
	s := e.s
	if !s.skinnyOK {
		e.c2rCacheAware(data, st)
		return
	}
	e.bandSweep(data, st, true, s.bandPre, s.boundsBandPre, st.savedPre, e.c2r1)
	e.bandSweep(data, st, true, s.bandRot, s.boundsBandRot, st.savedRot, e.c2r2)
	e.rowCycles(data, st, s.qCycles())
}

// r2cSkinny inverts c2rSkinny pass by pass with backward band sweeps.
func (e *Engine[T]) r2cSkinny(data []T, st *execState[T]) {
	s := e.s
	if !s.skinnyOK {
		e.r2cCacheAware(data, st)
		return
	}
	e.rowCycles(data, st, s.qInvCycles())
	e.bandSweep(data, st, false, s.bandRot, s.boundsBandRot, st.savedRot, e.r2c2)
	e.bandSweep(data, st, false, s.bandPre, s.boundsBandPre, st.savedPre, e.r2c3)
}

// rowCycles permutes whole rows along the cached cycles of cy,
// splitting the cycles across workers.
func (e *Engine[T]) rowCycles(data []T, st *execState[T], cy *cycles) {
	if len(cy.leaders) == 0 {
		return
	}
	e.run(st, cy.bounds, pass[T]{k: kCycles, data: data, cy: cy})
}

// bandSweep runs one skinny band sweep over all M rows, snapshotting the
// inter-chunk bands into the state's recycled slabs first.
func (e *Engine[T]) bandSweep(data []T, st *execState[T], forward bool, band int, bounds []int, saved [][]T, row bandRowFunc[T]) {
	snapshotBands(data, e.s.Plan.N, band, forward, bounds, saved)
	e.run(st, bounds, pass[T]{k: kBand, data: data, forward: forward, band: band, bounds: bounds, saved: saved, row: row})
}

// --- Pass execution ---

// kernel names the range kernel a pass runs.
type kernel uint8

const (
	kRowScatter    kernel = iota // Algorithm 1 row shuffle, scatter
	kRowGather                   // gather row shuffle through d'^{-1}
	kRowScatterInc               // scatter row shuffle, incremental indices
	kRowGatherD                  // R2C row shuffle, gather through d'
	kRowGatherDInc               // R2C row shuffle, incremental indices
	kColShuffle                  // Algorithm 1 column shuffle through s'
	kRotate                      // per-column rotation by fn(j)
	kPermuteNaive                // per-column row permutation fn
	kPanel                       // cache-aware panel pass op
	kCycles                      // skinny whole-row cycle permute cy
	kBand                        // skinny band sweep
)

// pass describes one pass: its kernel, the buffer, and the kernel's
// parameters. The driver stores it in the execution state, where the
// state's prebuilt chunk body reads it.
type pass[T any] struct {
	k       kernel
	data    []T
	fn      func(int) int
	op      panelOp
	cy      *cycles
	forward bool
	band    int
	bounds  []int
	saved   [][]T
	row     bandRowFunc[T]
}

// run executes p over the chunks of bounds. A single chunk runs inline;
// several are dispatched through the schedule (persistent pool or
// spawned goroutines) with the state's chunk body, which was built
// once with the state, so no pass allocates. The chunk index doubles as
// the scratch frame index.
func (e *Engine[T]) run(st *execState[T], bounds []int, p pass[T]) {
	st.p = p
	if len(bounds) == 2 {
		st.chunk(0, bounds[0], bounds[1])
	} else {
		e.s.dispatch(bounds, st.body)
	}
	st.p = pass[T]{} // drop the buffer reference before the state is pooled
}

// chunk runs the state's current pass over [lo, hi) with frame w.
//
//xpose:hotpath
func (st *execState[T]) chunk(w, lo, hi int) {
	s, p, fr := st.e.s, &st.p, &st.frames[w]
	pl := s.Plan
	m, n := pl.M, pl.N
	switch p.k {
	case kRowScatter:
		rowShuffleScatterRange(p.data, pl, fr.elems(n), lo, hi)
	case kRowGather:
		rowShuffleGatherRange(p.data, pl, fr.elems(n), lo, hi)
	case kRowScatterInc:
		rowShuffleScatterIncRange(p.data, pl, fr.elems(n), lo, hi)
	case kRowGatherD:
		rowShuffleGatherDRange(p.data, pl, fr.elems(n), lo, hi)
	case kRowGatherDInc:
		rowShuffleGatherDIncRange(p.data, pl, fr.elems(n), lo, hi)
	case kColShuffle:
		columnShuffleGatherRange(p.data, pl, fr.elems(m), lo, hi)
	case kRotate:
		rotateColumnsGatherRange(p.data, m, n, p.fn, pl.DivM(), fr.elems(m), lo, hi)
	case kPermuteNaive:
		rowPermuteGatherNaiveRange(p.data, m, n, p.fn, fr.elems(m), lo, hi)
	case kPanel:
		panelRange(p.data, pl, s.panelW, p.op, fr, lo, hi)
	case kCycles:
		rowCyclesRange(p.data, n, p.cy.p, p.cy.leaders[lo:hi], p.cy.lengths[lo:hi], fr.elems(n))
	case kBand:
		nchunks := len(p.bounds) - 1
		fr.br = bandReader[T]{data: p.data, n: n, m: m, lo: lo, hi: hi, band: p.band, forward: p.forward}
		fr.br.outside, fr.br.wrap = bandNeighbors(p.saved, p.band, nchunks, w, p.forward)
		bandChunkRange(&fr.br, p.data, n, p.forward, p.row, fr.elems(n), lo, hi)
		fr.br = bandReader[T]{}
	}
}

// --- Execution state ---

// execState is the private scratch of one execution: a frame per worker
// slot plus the band-snapshot slabs of the skinny sweeps, and the pass
// being dispatched. States are recycled through the engine's arena, so
// their buffers grow to their steady-state sizes on first use and are
// reused thereafter.
type execState[T any] struct {
	e        *Engine[T]
	frames   []frame[T]
	savedPre [][]T // skinny pass snapshots, band c-1, one per chunk
	savedRot [][]T // skinny pass snapshots, band n-1, one per chunk

	p    pass[T]
	body func(worker, lo, hi int) // st.chunk, bound once
}

func newExecState[T any](e *Engine[T]) *execState[T] {
	s := e.s
	st := &execState[T]{e: e, frames: make([]frame[T], s.workers)}
	st.body = st.chunk
	if s.Opts.Variant == Skinny && s.skinnyOK {
		st.savedPre = arena.Slab[T](s.nchunksPre, s.bandPre*s.Plan.N)
		st.savedRot = arena.Slab[T](s.nchunksRot, s.bandRot*s.Plan.N)
	}
	return st
}

// frame is the per-worker scratch of one execution: one buffer that
// serves as the row or column line and as the cache-aware panel,
// borrowed from the engine's shared free list for the execution, the
// panel's per-column rotation offsets, and an inline band reader.
type frame[T any] struct {
	box *[]T // the borrowed buffer
	buf []T  // *box, cut to the frame's scratch need
	off []int
	br  bandReader[T]
}

// elems returns the first n elements of the frame's buffer. The
// schedule sized the buffer for the longest line or panel any pass
// asks of this frame.
func (fr *frame[T]) elems(n int) []T {
	return fr.buf[:n]
}

// offsets returns the frame's panel offset array of n ints.
func (fr *frame[T]) offsets(n int) []int {
	if cap(fr.off) < n {
		fr.off = make([]int, n)
	}
	return fr.off[:n]
}
