package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A tracer records spans at the layer boundaries the benchmark's own
// code crosses: around each call into a library layer, and (for the
// daemon and the out-of-core backends) at the wrapped listener and
// storage the layer calls out through. Spans stay in memory and are
// written out once, at the end of the run. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed interval. Parent indexes the span that caused it
// (-1 for a root); Op groups the spans of one operation.
type span struct {
	Name       string
	Start, End int64 // ns since epoch
	Parent     int32
	Op         int64
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16)}
}

// epoch anchors the benchmark's clock: spans, job due times and
// connection timestamps are all nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	start := now()
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return i
}

// end closes span i now.
func (t *tracer) end(i int32) { t.endAt(i, now()) }

// endAt closes span i at time e.
func (t *tracer) endAt(i int32, e int64) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = e
	t.mu.Unlock()
}

// add records a finished span in one step (for callers that already
// hold both timestamps, such as the storage and connection wrappers).
func (t *tracer) add(name string, start, end int64, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	t.mu.Unlock()
	return i
}

// snapshot copies the spans recorded so far; a span still open counts
// as empty.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns, for every span in spans (indexed as given, parents
// referring to positions in the same slice), its duration minus the
// part of its interval that its children cover. Overlapping children
// count once, and children are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var buf []iv
	for i, s := range spans {
		buf = buf[:0]
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				buf = append(buf, iv{a, b})
			}
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].a < buf[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range buf {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals aggregates spans by name: count, total and self time (ns).
type spanTotal struct {
	Name       string
	Count      int
	Total, Own int64
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanTotal
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanTotal{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += s.End - s.Start
		out[j].Own += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Total > out[b].Total })
	return out
}

// ownByName sums the self time of every span called name.
func ownByName(spans []span, self []int64, name string) int64 {
	var s int64
	for i, sp := range spans {
		if sp.Name == name {
			s += self[i]
		}
	}
	return s
}

// writeSpans writes spans as tab-separated lines: index, name, start
// ns, end ns, parent index, op id.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "idx\tname\tstart_ns\tend_ns\tparent\top")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
