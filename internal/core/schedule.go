package core

import (
	"sync"
	"unsafe"

	"inplace/internal/cr"
	"inplace/internal/parallel"
	"inplace/internal/perm"
)

// Schedule is the element-type-independent half of a reusable execution
// plan: everything the engines can precompute from the shape, the
// options and the element size alone. Building one per call reproduces
// the old cold path; a Planner builds it once so repeated executions
// skip the chunk partitioning, the rotation-amount closures, and — the
// expensive part for skinny shapes — the cycle decomposition of the
// shared row permutation q.
type Schedule struct {
	Plan *cr.Plan
	Opts Opts

	elemSize int
	workers  int
	pool     *parallel.Pool

	// Chunk partitions for every pass family, precomputed with the
	// resolved worker count so chunk index == scratch frame index.
	boundsM      []int // row passes over [0, M)
	boundsN      []int // column passes over [0, N)
	panelW       int   // cache-aware panel width, 1 <= panelW <= N
	boundsPanels []int // cache-aware column passes over the panels
	frameElems   []int // scratch buffer of each worker frame, in elements
	frameOffsets int   // panel rotation offsets of all frames

	// Skinny banded path (§6.1).
	skinnyOK         bool
	bandPre, bandRot int   // look-ahead bands: c-1 and n-1
	boundsBandPre    []int // band sweeps over [0, M), minChunk c-1
	boundsBandRot    []int // band sweeps over [0, M), minChunk n-1
	nchunksPre       int
	nchunksRot       int

	// Rotation-amount and permutation closures, built once so executions
	// do not re-box plan methods.
	rotFn, negRotFn func(int) int
	negIDFn         func(int) int
	qFn, qInvFn     func(int) int

	// Cycle descriptors of q and q⁻¹ (§4.7) for the skinny whole-row
	// permute, computed on first use by the direction that needs them
	// and then shared by every execution.
	qc2r, qr2c cycles
}

// cycles caches one row permutation in one-line notation together with
// its cycle leaders and a chunk partition over those leaders.
type cycles struct {
	once    sync.Once
	p       perm.P
	leaders []int
	lengths []int
	bounds  []int
}

// NewSchedule resolves options against a plan for elements of elemSize
// bytes: worker count, panel width, chunk partitions, closure table and
// scratch sizing. It performs no per-element work besides the
// O(workers) partitions; the O(M) cycle decompositions are deferred to
// first use.
func NewSchedule(plan *cr.Plan, o Opts, elemSize int) *Schedule {
	s := &Schedule{
		Plan:     plan,
		Opts:     o,
		elemSize: elemSize,
		workers:  parallel.Workers(o.Workers),
		pool:     o.Pool,
	}
	m, n := plan.M, plan.N
	s.boundsM = parallel.Bounds(m, s.workers, 1)
	s.boundsN = parallel.Bounds(n, s.workers, 1)

	s.skinnyOK = skinnyViable(plan)
	if s.skinnyOK {
		s.bandPre = plan.C - 1
		s.bandRot = n - 1
		s.boundsBandPre = parallel.Bounds(m, s.workers, max(s.bandPre, 1))
		s.boundsBandRot = parallel.Bounds(m, s.workers, max(s.bandRot, 1))
		s.nchunksPre = len(s.boundsBandPre) - 1
		s.nchunksRot = len(s.boundsBandRot) - 1
	}

	s.setPanelW(panelWidth(o.BlockW, elemSize, n))
	for o.MaxScratch > 0 && s.usesPanels() && s.panelW > 1 && s.ScratchBytes() > o.MaxScratch {
		s.setPanelW(s.panelW / 2)
	}

	s.rotFn = plan.Rot
	s.negRotFn = func(j int) int { return -plan.Rot(j) }
	s.negIDFn = negIdentityAmount
	s.qFn = plan.Q
	s.qInvFn = plan.QInv
	return s
}

func negIdentityAmount(j int) int { return -j }

// setPanelW sets the panel width, partitions the panels over the
// workers and sizes the frames.
func (s *Schedule) setPanelW(w int) {
	s.panelW = w
	s.boundsPanels = parallel.Bounds((s.Plan.N+w-1)/w, s.workers, 1)
	s.setFrameNeeds()
}

// usesPanels reports whether executions run the cache-aware panel
// passes: the CacheAware variant, and Skinny on shapes too wide for its
// bands.
func (s *Schedule) usesPanels() bool {
	return s.Opts.Variant == CacheAware || (s.Opts.Variant == Skinny && !s.skinnyOK)
}

// setFrameNeeds computes every worker frame's scratch buffer: the
// longest line or panel any pass hands that frame. Row passes need an
// n-element line; the naive column passes an m-element one; a
// cache-aware panel pass m×w for the widest panel of its chunk, with w
// rotation offsets; the skinny band sweeps and row permute n.
func (s *Schedule) setFrameNeeds() {
	m, n := s.Plan.M, s.Plan.N
	s.frameElems = make([]int, s.workers)
	s.frameOffsets = 0
	grow := func(bounds []int, need func(chunk int) int) {
		for c := 0; c+1 < len(bounds); c++ {
			s.frameElems[c] = max(s.frameElems[c], need(c))
		}
	}
	each := func(k int) func(int) int { return func(int) int { return k } }
	grow(s.boundsM, each(n))
	switch {
	case s.usesPanels():
		grow(s.boundsPanels, func(c int) int {
			// A chunk's first panel is its widest.
			w := min(s.panelW, n-s.boundsPanels[c]*s.panelW)
			s.frameOffsets += w
			return m * w
		})
	case s.Opts.Variant == Scatter || s.Opts.Variant == Gather:
		grow(s.boundsN, each(m))
	}
}

// ScratchBytes returns the scratch one execution of the schedule holds:
// every worker frame's buffer and panel rotation offsets, plus the
// skinny band snapshots. A cache-aware frame holds the larger of an
// n-element row line and an m×panelW panel, so the engine needs up to
// m·panelW·elemSize bytes per worker rather than the O(max(m, n)) line
// of the other variants. Concurrent executions each hold their own.
func (s *Schedule) ScratchBytes() int64 {
	var elems int64
	for _, e := range s.frameElems {
		elems += int64(e)
	}
	if s.Opts.Variant == Skinny && s.skinnyOK {
		elems += int64(s.nchunksPre*s.bandPre*s.Plan.N + s.nchunksRot*s.bandRot*s.Plan.N)
	}
	return elems*int64(s.elemSize) + int64(s.frameOffsets)*int64(unsafe.Sizeof(int(0)))
}

// qCycles returns the cycle descriptors of q, computing them on first
// use. Safe for concurrent executions.
func (s *Schedule) qCycles() *cycles { return s.cyc(&s.qc2r, s.qFn) }

// qInvCycles returns the cycle descriptors of q⁻¹.
func (s *Schedule) qInvCycles() *cycles { return s.cyc(&s.qr2c, s.qInvFn) }

func (s *Schedule) cyc(c *cycles, f func(int) int) *cycles {
	c.once.Do(func() {
		c.p = perm.FromFunc(s.Plan.M, f)
		c.leaders, c.lengths = c.p.Leaders()
		c.bounds = parallel.Bounds(len(c.leaders), s.workers, 1)
	})
	return c
}

// dispatch runs body over the chunks of bounds: on the persistent pool
// when the schedule has one, otherwise on freshly spawned goroutines.
func (s *Schedule) dispatch(bounds []int, body func(worker, lo, hi int)) {
	if s.pool != nil {
		s.pool.ForBounds(bounds, body)
		return
	}
	parallel.ForBounds(bounds, body)
}
