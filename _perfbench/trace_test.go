package main

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "a1", Start: 12, End: 18, Parent: 1},
		{Name: "lone", Start: 0, End: 5, Parent: -1},
	}
	got := selfTimes(spans)
	// root: 100 - (10..40 = 30) - (90..100 = 10) = 60; a: 20 - 6.
	want := []int64{60, 14, 20, 30, 6, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if own := ownByName(spans, got, "a"); own != 14 {
		t.Fatalf("ownByName(a) = %d", own)
	}
	tot := spanTotals(spans)
	if tot[0].Name != "root" || tot[0].Count != 1 || tot[0].Total != 100 || tot[0].Own != 60 {
		t.Fatalf("spanTotals[0] = %+v", tot[0])
	}
}

func TestSelfTimeNestedIntervals(t *testing.T) {
	// A child fully inside another child adds no coverage.
	spans := []span{
		{Name: "p", Start: 0, End: 50, Parent: -1},
		{Name: "x", Start: 5, End: 45, Parent: 0},
		{Name: "y", Start: 10, End: 20, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Fatalf("self(p) = %d, want 10", got)
	}
}

func TestTracerRecordsAndNilIsSilent(t *testing.T) {
	var off *tracer
	if i := off.begin("x", -1, 0); i != -1 {
		t.Fatalf("nil tracer begin = %d", i)
	}
	off.end(-1)
	if off.add("x", 1, 2, -1, 0) != -1 || off.snapshot() != nil {
		t.Fatal("nil tracer recorded")
	}
	tr := newTracer()
	p := tr.begin("parent", -1, 7)
	c := tr.add("child", 10, 20, p, 7)
	open := tr.begin("open", p, 7)
	tr.end(p)
	s := tr.snapshot()
	if len(s) != 3 || s[c].Parent != p || s[p].Op != 7 || s[open].End != s[open].Start {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestOracleMaps(t *testing.T) {
	// Transpose a small matrix naively and check the map agrees.
	rows, cols := 3, 5
	src := make([]int, rows*cols)
	for i := range src {
		src[i] = i
	}
	out := make([]int, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = src[i*cols+j]
		}
	}
	m := transposed(rows, cols)
	for p := range out {
		if m(p) != out[p] {
			t.Fatalf("transposed map at %d = %d, want %d", p, m(p), out[p])
		}
	}
	bm := batchTransposed(rows, cols)
	if bm(rows*cols+4) != rows*cols+m(4) {
		t.Fatal("batch map")
	}
	// NHWC -> NCHW on (2,2,3,4): out (n,c,h,w) holds in (n,h,w,c).
	n, h, w, c := 2, 2, 3, 4
	nm := nhwcToNCHW(n, h, w, c)
	p := ((1*c+2)*h+1)*w + 2 // n=1 c=2 h=1 w=2
	if want := ((1*h+1)*w+2)*c + 2; nm(p) != want {
		t.Fatalf("nhwc map = %d, want %d", nm(p), want)
	}
	// Byte elements round-trip through the oracle.
	b := make([]byte, 4*6)
	fillBytes(b, 4, 9)
	for i := 0; i < 6; i++ {
		if !byteElemOK(b, 4, i, 9, i) || byteElemOK(b, 4, i, 9, i+1) {
			t.Fatalf("byteElemOK at %d", i)
		}
	}
	rng := rand.New(rand.NewSource(1))
	if !sampleOK(6, 10, rng, func(p int) bool { return byteElemOK(b, 4, p, 9, p) }) || !fullOK(6, func(p int) bool { return byteElemOK(b, 4, p, 9, p) }) {
		t.Fatal("sampleOK/fullOK on a correct buffer")
	}
	if fullOK(6, func(p int) bool { return p != 5 }) {
		t.Fatal("fullOK missed a wrong element")
	}
}
