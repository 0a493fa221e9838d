package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
)

// Output oracles. Every generated input value is a seeded function of
// its source index, so an output position can be checked by computing
// which source index belongs there: no copy of the input is kept.

// val is the input value at source index i: splitmix64 of the seed
// offset by the index.
func val(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// valF32 is val narrowed to a float32 that holds it exactly (24 bits).
func valF32(seed uint64, i int) float32 { return float32(val(seed, i) >> 40) }

// srcMap maps an output position to the source index it must hold.
type srcMap func(p int) int

func identity(p int) int { return p }

// transposed is the map of a row-major rows×cols matrix after
// transposition: output (j, i) of the cols×rows result holds source
// element (i, j).
func transposed(rows, cols int) srcMap {
	return func(p int) int {
		j, i := p/rows, p%rows
		return i*cols + j
	}
}

// batchTransposed is transposed applied to each of count consecutive
// rows×cols matrices.
func batchTransposed(rows, cols int) srcMap {
	t := transposed(rows, cols)
	sz := rows * cols
	return func(p int) int { return p/sz*sz + t(p%sz) }
}

// nhwcToNCHW is the map of an (n,h,w,c) tensor permuted to (n,c,h,w).
func nhwcToNCHW(n, h, w, c int) srcMap {
	return func(p int) int {
		wi := p % w
		hi := p / w % h
		ci := p / (w * h) % c
		ni := p / (w * h * c)
		return ((ni*h+hi)*w+wi)*c + ci
	}
}

// parallelRange runs body over [0, n) in two halves, one per core of
// the hosts this benchmark targets.
func parallelRange(n int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	mid := n / 2
	wg.Add(1)
	go func() {
		defer wg.Done()
		body(0, mid)
	}()
	body(mid, n)
	wg.Wait()
}

func fillU64(dst []uint64, seed uint64) {
	parallelRange(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = val(seed, i)
		}
	})
}

func fillF32(dst []float32, seed uint64) {
	parallelRange(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = valF32(seed, i)
		}
	})
}

// fillBytes writes elements of elem bytes: element i is the low elem
// bytes of val(seed, i), little-endian.
func fillBytes(dst []byte, elem int, seed uint64) {
	var tmp [8]byte
	for i := 0; i*elem < len(dst); i++ {
		binary.LittleEndian.PutUint64(tmp[:], val(seed, i))
		copy(dst[i*elem:(i+1)*elem], tmp[:elem])
	}
}

// putVal stores v little-endian in b[:8].
func putVal(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// byteElemOK reports whether element p of b (elem bytes each) holds
// source index src.
func byteElemOK(b []byte, elem, p int, seed uint64, src int) bool {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], val(seed, src))
	e := b[p*elem : (p+1)*elem]
	for k := range e {
		if e[k] != tmp[k] {
			return false
		}
	}
	return true
}

// sampleOK checks k seeded random positions of an n-element output.
func sampleOK(n, k int, rng *rand.Rand, ok func(p int) bool) bool {
	for s := 0; s < k; s++ {
		if !ok(rng.Intn(n)) {
			return false
		}
	}
	return true
}

// fullOK checks every position of an n-element output, on two cores.
func fullOK(n int, ok func(p int) bool) bool {
	var bad [2]bool
	parallelRange(n, func(lo, hi int) {
		h := 0
		if lo > 0 {
			h = 1
		}
		for p := lo; p < hi; p++ {
			if !ok(p) {
				bad[h] = true
				return
			}
		}
	})
	return !bad[0] && !bad[1]
}
