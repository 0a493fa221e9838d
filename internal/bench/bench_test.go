package bench

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"inplace/internal/simd"
)

func TestMedianAndPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Median(xs) != 3 {
		t.Fatalf("median = %f", Median(xs))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("percentile endpoints wrong")
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Fatalf("interpolated median = %f", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("median of empty must be NaN")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of empty must be NaN")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("minmax = %f %f", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("minmax of empty must be NaN")
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0, 0.5, 1.5, 2.5, 9.9, -5, 50}, 0, 10, 10)
	if counts[0] != 3 { // 0, 0.5 and clamped -5
		t.Fatalf("bin0 = %d", counts[0])
	}
	if counts[9] != 2 { // 9.9 and clamped 50
		t.Fatalf("bin9 = %d", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 7 {
		t.Fatalf("total = %d", total)
	}
}

func TestThroughputEquation37(t *testing.T) {
	// 2*m*n*s bytes per transpose: 1000x1000x8B in 16ms = 1 GB/s.
	got := ThroughputGBps(1000, 1000, 8, 16*time.Millisecond)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("throughput = %f, want 1.0", got)
	}
	if ThroughputGBps(10, 10, 8, 0) != 0 {
		t.Fatal("zero duration must yield 0")
	}
}

func TestScaleParsing(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": TinyScale, "small": SmallScale, "paper": PaperScale, "": SmallScale} {
		got, ok := ParseScale(s)
		if !ok || got != want {
			t.Fatalf("ParseScale(%q) = %v,%v", s, got, ok)
		}
	}
	if _, ok := ParseScale("bogus"); ok {
		t.Fatal("bogus scale must fail")
	}
	for _, s := range []Scale{TinyScale, SmallScale, PaperScale} {
		if s.String() == "Scale(?)" {
			t.Fatal("scale has no name")
		}
	}
}

func TestWorkloadPresets(t *testing.T) {
	for _, s := range []Scale{TinyScale, SmallScale, PaperScale} {
		if w := CPUWorkload(s); w.Samples <= 0 || w.Dim.Lo <= 0 || w.Dim.Hi <= w.Dim.Lo {
			t.Fatalf("cpu workload %v invalid: %+v", s, w)
		}
		if w := GPUWorkload(s); w.Samples <= 0 {
			t.Fatalf("gpu workload %v invalid", s)
		}
		if g := LandscapeGrid(s); len(g) < 3 {
			t.Fatalf("landscape grid %v too small", s)
		}
		if n, f, c := AoSWorkload(s); n <= 0 || f.Lo < 2 || c.Lo <= 0 {
			t.Fatalf("aos workload %v invalid", s)
		}
	}
	// Paper preset must match the published ranges.
	if w := CPUWorkload(PaperScale); w.Samples != 1000 || w.Dim.Lo != 1000 || w.Dim.Hi != 10000 {
		t.Fatalf("paper cpu workload wrong: %+v", w)
	}
}

func TestSizeRangeRand(t *testing.T) {
	rng := NewRNG(1)
	r := SizeRange{10, 20}
	for i := 0; i < 100; i++ {
		v := r.Rand(rng)
		if v < 10 || v >= 20 {
			t.Fatalf("rand size %d out of range", v)
		}
	}
	if (SizeRange{5, 5}).Rand(rng) != 5 {
		t.Fatal("degenerate range must return Lo")
	}
}

// The figure demos must verify their own output.
func TestFig1SelfCheck(t *testing.T) {
	res := Fig1(Config{})
	if len(res) != 1 || !strings.Contains(res[0].Text, "matches the paper's right-hand matrix: true") {
		t.Fatalf("fig1 self-check failed:\n%s", res[0].Text)
	}
	if !strings.Contains(res[0].Text, "restored: true") {
		t.Fatalf("fig1 round trip failed:\n%s", res[0].Text)
	}
}

func TestFig2SelfCheck(t *testing.T) {
	res := Fig2(Config{})
	if len(res) != 1 || !strings.Contains(res[0].Text, "matches out-of-place transpose: true") {
		t.Fatalf("fig2 self-check failed:\n%s", res[0].Text)
	}
	// The published intermediate states, drawn column-major:
	// after rotation the first column is 0,1,2,3 and the third 9,10,11,8.
	if !strings.Contains(res[0].Text, "9\t13\t18\t22\t27\t31") {
		t.Fatalf("fig2 rotation stage does not match the paper:\n%s", res[0].Text)
	}
}

// Every registered experiment must run at tiny scale and produce
// non-empty text.
func TestAllExperimentsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short")
	}
	cfg := Config{Scale: TinyScale, Workers: 2, Seed: 1}
	for _, e := range All() {
		results := e.Run(cfg)
		if len(results) == 0 {
			t.Fatalf("experiment %q produced no results", e.ID)
		}
		for _, r := range results {
			if r.Name == "" || r.Text == "" {
				t.Fatalf("experiment %q produced empty result", e.ID)
			}
		}
	}
}

// The Figure 8 model must preserve the paper's headline shape: C2R
// sustains near-model-peak bandwidth at every structure size while
// direct access degrades markedly by 64 bytes.
func TestFig8Shape(t *testing.T) {
	cfg := Config{Scale: SmallScale, Seed: 1}
	words, stores := simdSeries(cfg, opStore, patternUnitStride)
	last := len(words) - 1
	c2r := stores[simd.AccessC2R][last]
	direct := stores[simd.AccessDirect][last]
	if c2r < 150 {
		t.Fatalf("C2R store bandwidth %f too low", c2r)
	}
	if ratio := c2r / direct; ratio < 8 {
		t.Fatalf("C2R/direct store ratio %f too small for 64B structs", ratio)
	}
}

func TestRenderHelpers(t *testing.T) {
	h := RenderHistogram("t", []float64{1, 2, 3}, 0, 4, 4, 10)
	if !strings.Contains(h, "median=2") {
		t.Fatalf("histogram missing median: %s", h)
	}
	hm := RenderHeatmap("t", []int{1, 2}, []int{3, 4}, [][]float64{{1, 2}, {3, 4}})
	if !strings.Contains(hm, "m \\ n") {
		t.Fatalf("heatmap missing axes: %s", hm)
	}
	tb := RenderTable("t", []Row{{Label: "a", Value: 1.5, Unit: "GB/s"}})
	if !strings.Contains(tb, "1.500 GB/s") {
		t.Fatalf("table missing row: %s", tb)
	}
	csv := CSV([]string{"a", "b"}, [][]float64{{1, 2}})
	if csv != "a,b\n1,2\n" {
		t.Fatalf("csv wrong: %q", csv)
	}
}

var allocSink []*[64]byte

// allocsPerOp must report the body's own allocations: one per call for a
// body that allocates once, however much another goroutine allocates
// meanwhile.
func TestAllocsPerOpIgnoresConcurrentAllocs(t *testing.T) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var junk []*[64]byte
		for !stop.Load() {
			junk = append(junk[:0], new([64]byte), new([64]byte))
		}
		_ = junk
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	once := func() { allocSink = append(allocSink[:0], new([64]byte)) }
	for i := 0; i < 20; i++ {
		if allocs, bytes := allocsPerOp(once, 2); allocs != 1 || bytes != 64 {
			t.Fatalf("run %d: %d allocs, %d bytes per op, want 1 and 64", i, allocs, bytes)
		}
	}
	if allocs, _ := allocsPerOp(func() {}, 2); allocs != 0 {
		t.Fatalf("empty body: %d allocs per op, want 0", allocs)
	}
}
