package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The benchmark's own arithmetic: percentiles under the ten-samples
// rule, open-loop latency and lateness, the rate-ladder search and the
// cache hit/miss split. Everything here is pure so measure_test.go can
// check it on synthetic inputs.

// tailLadder lists the percentiles a tail may be reported at, highest
// first. A tail is the highest of them with at least minBeyond samples
// strictly beyond its nearest rank.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// nearestRank is the 1-based nearest rank of percentile p among n
// sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1e-9 absorbs float error in p·n/100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// dist summarizes a sample of timings: the median, the fixed p99 the
// benchmark reports, and the highest percentile the sample supports
// under the ten-samples rule.
type dist struct {
	N        int
	P50, P99 float64
	Beyond99 int     // samples strictly beyond the p99 rank
	TailP    float64 // highest ladder percentile with >= minBeyond beyond; 0 if none
	Tail     float64 // value at TailP (the maximum when TailP is 0)
}

// summarize computes dist of xs. xs is not modified.
func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r99 := nearestRank(99, n)
	d := dist{N: n, P50: s[nearestRank(50, n)-1], P99: s[r99-1], Beyond99: n - r99}
	d.TailP = tailPercentile(n)
	r := n
	if d.TailP > 0 {
		r = nearestRank(d.TailP, n)
	}
	d.Tail = s[r-1]
	return d
}

// tailNote says whether the p99 is backed by enough samples, and if not
// which percentile is.
func (d dist) tailNote() string {
	switch {
	case d.Beyond99 >= minBeyond:
		return "p99 has >= 10 samples beyond"
	case d.TailP > 0:
		return fmt.Sprintf("too few samples for p99; highest supported is p%g = %.4f", d.TailP, d.Tail)
	default:
		return "too few samples for any percentile; p99 is the maximum"
	}
}

// blockP99 splits xs (in arrival order) into consecutive blocks of
// block samples, takes each full block's p99 and returns their median
// with the per-block values. With block >= 1000 every block's p99 has
// at least 10 samples beyond it; the median over blocks keeps one burst
// on a shared host from deciding the tail.
func blockP99(xs []float64, block int) (float64, []float64) {
	var p99s []float64
	for lo := 0; lo+block <= len(xs); lo += block {
		p99s = append(p99s, percentile(xs[lo:lo+block], 99))
	}
	if len(p99s) == 0 {
		return percentile(xs, 99), nil
	}
	return median(p99s), p99s
}

// median is the middle sample, or the mean of the two middle samples
// of an even count (0 for no samples).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// typeLatency summarizes a fixed mix of operation types with too few
// calls per type for a sampled tail: typical is the geometric mean over
// types of each type's median call, slowest the largest of those
// medians. Both move continuously as any one type speeds up or slows
// down, so a change that reorders the types cannot make them jump, and
// the geometric mean weighs a 10% change of any type alike.
func typeLatency(byType [][]float64) (typical, slowest float64) {
	var logSum float64
	for _, xs := range byType {
		m := median(xs)
		logSum += math.Log(m)
		slowest = max(slowest, m)
	}
	return math.Exp(logSum / float64(len(byType))), slowest
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with the
// default exclusive method, so recorded summaries agree with the
// acceptance arithmetic.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// jobTiming is one open-loop job, in nanoseconds on a common clock:
// when it was due, when the connection it ran on became free, when it
// was sent and when its result was complete.
type jobTiming struct {
	Due, Free, Start, Done int64
}

// latency is the job's time from when it was due, so a stall also
// charges the jobs queued behind it.
func (j jobTiming) latency() int64 { return j.Done - j.Due }

// lateness is how late the generator sent the job after it could have:
// after both its due time and the moment a connection was free. Waiting
// for a busy connection is the system's queueing, not lateness.
func (j jobTiming) lateness() int64 {
	ready := j.Due
	if j.Free > ready {
		ready = j.Free
	}
	if l := j.Start - ready; l > 0 {
		return l
	}
	return 0
}

// backlogGrows reports whether the queueing delay (send minus due) rose
// across a run of jobs in due order: the mean over the last quarter
// exceeds the mean over the first quarter by more than slack ns.
func backlogGrows(jobs []jobTiming, slack int64) bool {
	q := len(jobs) / 4
	if q == 0 {
		return false
	}
	wait := func(js []jobTiming) float64 {
		var s float64
		for _, j := range js {
			s += float64(j.Start - j.Due)
		}
		return s / float64(len(js))
	}
	return wait(jobs[len(jobs)-q:])-wait(jobs[:q]) > float64(slack)
}

// rateLadder is a fixed geometric ladder of offered rates:
// rung k offers Base·Step^k jobs per second, k in [0, Top].
type rateLadder struct {
	Base, Step float64
	Top        int
}

func (l rateLadder) rate(k int) float64 { return l.Base * math.Pow(l.Step, float64(k)) }

// search finds the highest rung that passes, assuming passing is
// monotone in the rate. It starts at rung start, gallops by gallop
// rungs (upward while rungs pass, downward while they fail) and then
// bisects the bracket. The result is -1 when no tried rung passed.
func (l rateLadder) search(start, gallop int, passes func(k int) bool) (best int, tried []int) {
	lo, hi := -1, l.Top+1 // highest known pass, lowest known fail
	k := min(max(start, 0), l.Top)
	for hi-lo > 1 {
		tried = append(tried, k)
		pass := passes(k)
		if pass {
			lo = k
		} else {
			hi = k
		}
		switch {
		case pass && hi > l.Top: // no failure seen yet: gallop up
			k = min(k+gallop, l.Top)
		case !pass && lo < 0: // no pass seen yet: gallop down
			k = max(k-gallop, 0)
		default:
			k = lo + (hi-lo)/2
		}
	}
	return lo, tried
}

// splitByMisses classifies per-call latencies by the cache-miss
// counter delta each call caused: no new miss is a hit.
func splitByMisses(lat []float64, missDelta []uint64) (hits, misses []float64) {
	for i, l := range lat {
		if missDelta[i] == 0 {
			hits = append(hits, l)
		} else {
			misses = append(misses, l)
		}
	}
	return hits, misses
}

// ratio is a/b, or 0 when b is 0 (no attempts means no useful ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runCycles runs body(0), body(1), ... while another cycle is expected
// to fit in seconds: it stops once the elapsed time plus half the last
// cycle reaches them, after at least one cycle.
func runCycles(seconds float64, body func(k int)) {
	start := time.Now()
	for k := 0; ; k++ {
		c0 := time.Now()
		body(k)
		last := time.Since(c0).Seconds()
		if time.Since(start).Seconds()+last/2 >= seconds {
			return
		}
	}
}
