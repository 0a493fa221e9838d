// Package arena provides recycled scratch storage for the transposition
// engines. Each execution lane needs a row line or a cache-aware panel of
// scratch, but allocating that scratch on every call dominates the cost
// of transposing the small and skinny shapes the paper targets (§6.1). A
// Pool recycles an engine's per-execution state through a sync.Pool, and
// Buffers lends the large line and panel buffers from one free list per
// element type shared by every engine, so a reused plan reaches a
// zero-allocation steady state, concurrent executions still each get
// private buffers, and plans built for new shapes reuse the buffers
// earlier plans returned.
package arena

import (
	"sync"

	"inplace/internal/mathutil"
)

// Pool recycles pre-sized scratch frames of type F across executions.
// Get returns a private frame (freshly built by the constructor only when
// the pool is empty); Put returns it for reuse. A frame must not be used
// after Put. The zero Pool is not ready; use NewPool.
//
// Frames hold only scratch state, so losing one to a garbage collection
// (sync.Pool semantics) is always safe — the next Get rebuilds.
type Pool[F any] struct {
	pool sync.Pool
}

// NewPool returns a Pool whose empty-pool Get builds a frame with build.
func NewPool[F any](build func() *F) *Pool[F] {
	p := &Pool[F]{}
	p.pool.New = func() any { return build() }
	return p
}

// Get hands out a frame for one execution. The frame is either recycled
// from a finished execution or newly built; its contents are unspecified
// scratch and must be fully written before being read.
func (p *Pool[F]) Get() *F {
	return p.pool.Get().(*F)
}

// Put recycles a frame. The caller must not retain any reference into it.
func (p *Pool[F]) Put(f *F) {
	p.pool.Put(f)
}

// Slab allocates one backing array of count*size elements and returns it
// split into count equal buffers. Band sweeps and per-worker scratch use
// a slab so that an execution state costs one allocation per buffer kind
// instead of one per worker or chunk.
func Slab[T any](count, size int) [][]T {
	if count <= 0 || size <= 0 {
		return nil
	}
	total, ok := mathutil.CheckedMul(count, size)
	if !ok {
		panic("arena: slab size overflows int")
	}
	backing := make([]T, total)
	bufs := make([][]T, count)
	for i := range bufs {
		bufs[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return bufs
}
