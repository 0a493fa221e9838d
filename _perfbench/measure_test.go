package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..n, so value == rank
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990, 10 beyond
		{9999, 99},    // rank 9990 for p99.9 leaves 9
		{1000, 99},    // rank 990, 10 beyond
		{999, 95},     // p99 rank 990 leaves 9
		{200, 95},     // rank 190, 10 beyond
		{100, 90},     // rank 90, 10 beyond
		{40, 75},      // rank 30, 10 beyond
		{20, 50},      // rank 10, 10 beyond
		{19, 0},       // no percentile leaves 10
		{1, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeCountsBeyond(t *testing.T) {
	d := summarize(seq(1000))
	if d.N != 1000 || d.P50 != 500 || d.P99 != 990 || d.Beyond99 != 10 || d.TailP != 99 || d.Tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v", d)
	}
	d = summarize(seq(12))
	if d.P99 != 12 || d.Beyond99 != 0 || d.TailP != 0 || d.Tail != 12 {
		t.Fatalf("summarize(1..12) = %+v", d)
	}
	if d.tailNote() != "too few samples for any percentile; p99 is the maximum" {
		t.Fatalf("tailNote = %q", d.tailNote())
	}
	// Input order does not matter and the input is left alone.
	xs := []float64{5, 1, 4, 2, 3}
	if d := summarize(xs); d.P50 != 3 || xs[0] != 5 {
		t.Fatalf("summarize(%v) = %+v", xs, d)
	}
}

func TestBlockP99(t *testing.T) {
	// Three blocks of 1000 with p99s 990, 5990 and 1090: the median
	// ignores the outlying block.
	var xs []float64
	for _, off := range []float64{0, 5000, 100} {
		for _, x := range seq(1000) {
			xs = append(xs, x+off)
		}
	}
	got, blocks := blockP99(xs, 1000)
	if got != 1090 || !reflect.DeepEqual(blocks, []float64{990, 5990, 1090}) {
		t.Fatalf("blockP99 = %g over blocks %v, want 1090", got, blocks)
	}
	// A partial trailing block is ignored; too few samples fall back to
	// the plain p99.
	if _, blocks := blockP99(append(xs, 1e9), 1000); len(blocks) != 3 {
		t.Fatalf("partial block counted: %v", blocks)
	}
	if got, blocks := blockP99(seq(100), 1000); blocks != nil || got != 99 {
		t.Fatalf("short sample: %g over blocks %v", got, blocks)
	}
}

func TestTypeLatency(t *testing.T) {
	// Per-type medians 1, 10 and 100 (an even count averages the middle
	// two): typical is their geometric mean, 10; slowest the largest.
	typical, slowest := typeLatency([][]float64{{1}, {5, 10, 30}, {50, 150}})
	if math.Abs(typical-10) > 1e-9 || slowest != 100 {
		t.Fatalf("typeLatency = %g, %g", typical, slowest)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Fatal("medianMid")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles(3,1,2) = %g %g %g", q1, q2, q3)
	}
}

func TestOpenLoopLatencyAndLateness(t *testing.T) {
	for _, c := range []struct {
		j             jobTiming
		lat, lateness int64
	}{
		// Connection idle before the due time, sent 2 late: the
		// generator's lateness, and latency runs from the due time.
		{jobTiming{Due: 100, Free: 50, Start: 102, Done: 130}, 30, 2},
		// Connection busy until 140: waiting for it is queueing, charged
		// to latency but not to the generator.
		{jobTiming{Due: 100, Free: 140, Start: 141, Done: 170}, 70, 1},
		// Sent exactly when possible.
		{jobTiming{Due: 100, Free: 140, Start: 140, Done: 150}, 50, 0},
	} {
		if got := c.j.latency(); got != c.lat {
			t.Errorf("%+v latency = %d, want %d", c.j, got, c.lat)
		}
		if got := c.j.lateness(); got != c.lateness {
			t.Errorf("%+v lateness = %d, want %d", c.j, got, c.lateness)
		}
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := make([]jobTiming, 100)
	growing := make([]jobTiming, 100)
	for i := range steady {
		due := int64(i * 10)
		steady[i] = jobTiming{Due: due, Start: due + 3}
		growing[i] = jobTiming{Due: due, Start: due + int64(i)*2}
	}
	if backlogGrows(steady, 5) {
		t.Error("steady queueing reported as a growing backlog")
	}
	if !backlogGrows(growing, 5) {
		t.Error("growing queueing not reported")
	}
	if backlogGrows(growing[:3], 0) {
		t.Error("too few jobs to judge reported as growing")
	}
}

func TestLadderSearch(t *testing.T) {
	l := rateLadder{Base: 100, Step: 1.04, Top: 80}
	if r := l.rate(10); math.Abs(r-100*math.Pow(1.04, 10)) > 1e-9 {
		t.Fatalf("rate(10) = %g", r)
	}
	for _, c := range []struct {
		start, gallop, capacity int // rungs <= capacity pass
		want                    int
		tried                   []int
	}{
		{48, 4, 57, 57, []int{48, 52, 56, 60, 58, 57}},
		{48, 4, 49, 49, []int{48, 52, 50, 49}},
		{48, 4, 41, 41, []int{48, 44, 40, 42, 41}},
		{48, 4, -1, -1, []int{48, 44, 40, 36, 32, 28, 24, 20, 16, 12, 8, 4, 0}},
		{78, 4, 200, 80, []int{78, 80}},
	} {
		best, tried := l.search(c.start, c.gallop, func(k int) bool { return k <= c.capacity })
		if best != c.want || !reflect.DeepEqual(tried, c.tried) {
			t.Errorf("capacity %d from %d: best %d tried %v, want %d %v", c.capacity, c.start, best, tried, c.want, c.tried)
		}
	}
}

func TestSplitByMisses(t *testing.T) {
	hits, misses := splitByMisses([]float64{1, 9, 2, 8, 3}, []uint64{0, 2, 0, 1, 0})
	if !reflect.DeepEqual(hits, []float64{1, 2, 3}) || !reflect.DeepEqual(misses, []float64{9, 8}) {
		t.Fatalf("hits %v misses %v", hits, misses)
	}
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Fatal("ratio")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// here in step: same names, same units, same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), here %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, want %v", names, workloadOrder)
	}
}

func TestAnyFailedOperationFailsRun(t *testing.T) {
	ok := newResult()
	ok.op(nil, true)
	if !ok.passed() {
		t.Fatal("a run whose operations all succeeded did not pass")
	}
	if newResult().passed() {
		t.Fatal("a run with no operations passed")
	}
	for _, c := range []struct {
		name  string
		err   error
		ok    bool
		wrong int
	}{
		{"error", errors.New("boom"), true, 0},
		{"error and no output check", errors.New("boom"), false, 0},
		{"wrong output", nil, false, 1},
	} {
		r := newResult()
		r.op(nil, true)
		r.op(c.err, c.ok)
		if r.passed() || r.failed != 1 || r.wrong != c.wrong {
			t.Errorf("%s: passed=%v failed=%d wrong=%d, want false 1 %d", c.name, r.passed(), r.failed, r.wrong, c.wrong)
		}
	}
}

func TestSpreadFlag(t *testing.T) {
	for _, c := range []struct {
		sb   float64
		want string
	}{{0.2, ""}, {0.34, "high"}, {1, "high"}, {1.01, "OVER"}} {
		if got := spreadFlag(c.sb); got != c.want {
			t.Errorf("spreadFlag(%g) = %q, want %q", c.sb, got, c.want)
		}
	}
}
