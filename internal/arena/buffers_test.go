package arena

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

type bufTestElem struct{ a, b int64 }

func TestBuffersBestFit(t *testing.T) {
	b := new(Buffers[bufTestElem])
	small, big := b.Get(10), b.Get(100)
	if cap(*small) != 10 || cap(*big) != 100 {
		t.Fatalf("fresh buffers have caps %d and %d, want 10 and 100", cap(*small), cap(*big))
	}
	b.Put(big)
	b.Put(small)
	if got := b.Get(8); got != small {
		t.Fatal("Get(8) did not return the smallest idle buffer that fits")
	}
	if got := b.Get(50); got != big {
		t.Fatal("Get(50) did not return the idle 100-element buffer")
	}
	if got := b.Get(5); cap(*got) != 5 {
		t.Fatalf("Get(5) with no idle buffer returned cap %d, want a fresh 5", cap(*got))
	}
}

func TestBuffersZeroAllocSteadyState(t *testing.T) {
	b := new(Buffers[bufTestElem])
	b.Put(b.Get(64))
	b.Put(b.Get(1024))
	allocs := testing.AllocsPerRun(100, func() {
		x, y := b.Get(1000), b.Get(60)
		b.Put(x)
		b.Put(y)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f times per run, want 0", allocs)
	}
}

// A buffer left idle across two garbage collections is dropped; one in
// use survives.
func TestBuffersTrimAfterGC(t *testing.T) {
	b := BuffersFor[bufTestElem]()
	idle, busy := b.Get(32), b.Get(32)
	b.Put(idle)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		b.mu.Lock()
		n := len(b.free) + len(b.old)
		b.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d idle buffers survived repeated collections", n)
		}
		time.Sleep(time.Millisecond)
	}
	b.Put(busy)
	if got := b.Get(32); got != busy {
		t.Fatal("the buffer in use was not reusable after the collections")
	}
}

// Concurrent borrowers each get a buffer of their own.
func TestBuffersConcurrentGetPut(t *testing.T) {
	b := new(Buffers[bufTestElem])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := b.Get(16 + (g+i)%48)
				buf := *p
				for j := range buf {
					buf[j] = bufTestElem{int64(g), int64(i)}
				}
				for j := range buf {
					if buf[j] != (bufTestElem{int64(g), int64(i)}) {
						t.Errorf("buffer shared between goroutines")
						return
					}
				}
				b.Put(p)
			}
		}(g)
	}
	wg.Wait()
}
