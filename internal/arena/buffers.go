package arena

import (
	"reflect"
	"runtime"
	"sync"
)

// Buffers is the process-wide free list of scratch buffers for one
// element type. Engines borrow their line and panel buffers from it for
// the length of one execution, so scratch memory follows the number of
// executions running at once rather than the number of plans alive: a
// plan built for a new shape reuses what an earlier plan returned
// instead of growing buffers of its own. Get hands out the smallest idle
// buffer that fits (allocating only when none does), so the buffers a
// warm workload needs stay in circulation and Get and Put allocate
// nothing. Like a sync.Pool, a buffer left idle from one garbage
// collection to the next is dropped. Unlike a sync.Pool, any goroutine
// can reuse any idle buffer, whichever processor it runs on.
type Buffers[T any] struct {
	mu   sync.Mutex
	free []*[]T // put back since the last collection
	old  []*[]T // idle since the last collection; dropped at the next
}

// registry maps an element type to its *Buffers.
var registry sync.Map

// BuffersFor returns the free list for element type T.
func BuffersFor[T any]() *Buffers[T] {
	t := reflect.TypeFor[T]()
	if b, ok := registry.Load(t); ok {
		return b.(*Buffers[T])
	}
	b, loaded := registry.LoadOrStore(t, &Buffers[T]{})
	if !loaded {
		trimAfterGC.Do(armTrim)
	}
	return b.(*Buffers[T])
}

// Get returns a buffer of at least n elements. Its contents are
// unspecified.
func (b *Buffers[T]) Get(n int) *[]T {
	b.mu.Lock()
	p := takeFit(&b.free, n)
	if p == nil {
		p = takeFit(&b.old, n)
	}
	b.mu.Unlock()
	if p == nil {
		s := make([]T, n)
		p = &s
	}
	return p
}

// Put returns a buffer obtained from Get. The caller must not use it
// afterwards.
func (b *Buffers[T]) Put(p *[]T) {
	b.mu.Lock()
	b.free = append(b.free, p)
	b.mu.Unlock()
}

// takeFit removes and returns the smallest buffer of list holding at
// least n elements, or nil.
func takeFit[T any](list *[]*[]T, n int) *[]T {
	l := *list
	best := -1
	for i, p := range l {
		if c := cap(*p); c >= n && (best < 0 || c < cap(*l[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	p := l[best]
	last := len(l) - 1
	l[best], l[last] = l[last], nil
	*list = l[:last]
	return p
}

// trim drops the buffers that stayed idle since the previous collection
// and ages the rest.
func (b *Buffers[T]) trim() {
	b.mu.Lock()
	clear(b.old)
	b.old, b.free = b.free, b.old[:0]
	b.mu.Unlock()
}

var trimAfterGC sync.Once

// gcSentinel is garbage as soon as it is armed; its finalizer runs after
// the collection that finds it. It holds a pointer so the allocator
// gives it an object of its own, which finalizers require.
type gcSentinel struct{ _ *byte }

// armTrim trims every free list after the next garbage collection, and
// re-arms itself from there.
func armTrim() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		registry.Range(func(_, b any) bool {
			b.(interface{ trim() }).trim()
			return true
		})
		armTrim()
	})
}
