package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"inplace"
)

// The ooc workload: TransposeFile on seeded temp files with the daemon's
// spill settings — a budget of one eighth of the file, the journal on
// and Verify on. A square-ish non-coprime shape and a skinny AoS shape
// run the column-slab and the row-run panel regimes. Each file is
// transposed forward and back per cycle, in a seeded order.

type oocShape struct{ rows, cols int }

const oocElem = 8

var (
	oocFull  = []oocShape{{2048, 1536}, {65536, 32}}
	oocProbe = []oocShape{{512, 384}, {8192, 32}}
)

// oocFile is one matrix file with its journal.
type oocFile struct {
	shape         oocShape
	data, jrn     *os.File
	seed          uint64
	bytes         int64
	transposedNow bool
}

// fill writes the file's seeded elements, a buffer at a time.
func (f *oocFile) fill(buf []byte) error {
	n := int(f.bytes / oocElem)
	per := len(buf) / oocElem
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		b := buf[:(hi-lo)*oocElem]
		parallelRange(hi-lo, func(a, z int) {
			for i := a; i < z; i++ {
				putVal(b[i*oocElem:], val(f.seed, lo+i))
			}
		})
		if _, err := f.data.WriteAt(b, int64(lo)*oocElem); err != nil {
			return err
		}
	}
	return nil
}

// layout maps each element of the file to the source index it holds now.
func (f *oocFile) layout() srcMap {
	if f.transposedNow {
		return transposed(f.shape.rows, f.shape.cols)
	}
	return identity
}

// timedStorage wraps a file for a traced call: it sums busy time per
// kind of backend call and records a span for each.
type timedStorage struct {
	f              *os.File
	tr             *tracer
	parent         int32
	op             int64
	rdName, wrName string
	rd, wr, sy     *atomic.Int64 // busy ns
}

func (s *timedStorage) ReadAt(p []byte, off int64) (int, error) {
	a := now()
	n, err := s.f.ReadAt(p, off)
	b := now()
	s.rd.Add(b - a)
	s.tr.add(s.rdName, a, b, s.parent, s.op)
	return n, err
}

func (s *timedStorage) WriteAt(p []byte, off int64) (int, error) {
	a := now()
	n, err := s.f.WriteAt(p, off)
	b := now()
	s.wr.Add(b - a)
	s.tr.add(s.wrName, a, b, s.parent, s.op)
	return n, err
}

// Sync keeps the engine's durability upgrade: a backend with Sync gets
// a data sync before every journal commit, as *os.File does.
func (s *timedStorage) Sync() error {
	a := now()
	err := s.f.Sync()
	b := now()
	s.sy.Add(b - a)
	s.tr.add("storage.sync", a, b, s.parent, s.op)
	return err
}

// Truncate lets the journal drop a stale tail, as on a bare *os.File.
func (s *timedStorage) Truncate(n int64) error { return s.f.Truncate(n) }

// oocBusy is the busy time of every backend, summed over traced calls.
type oocBusy struct {
	read, write, jrnRead, jrnWrite, sync atomic.Int64
}

func runOOC(r *run) (*result, error) {
	shapes := oocFull
	if r.probe {
		shapes = oocProbe
	}
	res := newResult()
	rng := rand.New(rand.NewSource(int64(r.seed)))

	// Set-up: create the files and write their seeded contents.
	// Repeated setupReps times; the median is reported.
	files := make([]*oocFile, len(shapes))
	for i, s := range shapes {
		f := &oocFile{shape: s, seed: bufSeed(r.seed, 7+i), bytes: int64(s.rows * s.cols * oocElem)}
		var err error
		if f.data, err = os.Create(filepath.Join(r.work, fmt.Sprintf("ooc-%d.dat", i))); err != nil {
			return nil, err
		}
		defer f.data.Close()
		if f.jrn, err = os.Create(filepath.Join(r.work, fmt.Sprintf("ooc-%d.jrn", i))); err != nil {
			return nil, err
		}
		defer f.jrn.Close()
		files[i] = f
	}
	buf := make([]byte, 4<<20)
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		for _, f := range files {
			if err := f.fill(buf); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	var busy oocBusy
	var stats []inplace.OOCStats
	var opSecs []float64
	fileMs := make([][]float64, len(files)) // call times per file
	var fileBytes float64
	calls := make([][2]int, len(files))         // calls per file and direction
	side := make([][2][2][]float64, len(files)) // per file and direction: untraced, traced call secs
	var mallocs uint64
	var traced int
	var peakFrac float64
	cache0 := inplace.PlannerCacheStats()

	rss := startRSSSampler()
	defer rss.close()
	callPeak := make([][]float64, len(files)) // MiB, per file

	// call runs one TransposeFile on file fi (forward or back) and
	// checks sampled elements of the result. In a traced run every other
	// call of each file and direction is traced, starting with the
	// first, so traced and untraced calls do the same work.
	call := func(fi int, k int) {
		f := files[fi]
		rows, cols := f.shape.rows, f.shape.cols
		dir := 0
		if f.transposedNow {
			rows, cols = cols, rows
			dir = 1
		}
		tr := (*tracer)(nil)
		if calls[fi][dir]%2 == 0 {
			tr = r.tr
		}
		calls[fi][dir]++
		budget := f.bytes / 8
		opts := inplace.OOCOptions{Budget: budget, Journal: f.jrn, Verify: true}
		// Start every call from a collected heap and take its own peak,
		// so peak_rss_mib measures one call's footprint, not when the
		// collector last ran.
		debug.FreeOSMemory()
		rss.reset()
		var data inplace.Storage = f.data
		sp := tr.begin("ooc.transpose_file", -1, int64(k))
		var ms runtime.MemStats
		if tr != nil {
			data = &timedStorage{f: f.data, tr: tr, parent: sp, op: int64(k), rdName: "storage.read", wrName: "storage.write", rd: &busy.read, wr: &busy.write, sy: &busy.sync}
			opts.Journal = &timedStorage{f: f.jrn, tr: tr, parent: sp, op: int64(k), rdName: "journal.read", wrName: "journal.write", rd: &busy.jrnRead, wr: &busy.jrnWrite, sy: &busy.sync}
			runtime.ReadMemStats(&ms)
		}
		before := ms.Mallocs
		t0 := time.Now()
		st, err := inplace.TransposeFile(data, rows, cols, oocElem, opts)
		secs := time.Since(t0).Seconds()
		tr.end(sp)
		peakMiB := float64(rss.reset()) / (1 << 20)
		f.transposedNow = !f.transposedNow
		if err == nil { // a failed call counts as failed, not as a sample
			if tr != nil {
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				traced++
			}
			side[fi][dir][traced01(tr)] = append(side[fi][dir][traced01(tr)], secs)
			callPeak[fi] = append(callPeak[fi], peakMiB)
			opSecs = append(opSecs, secs)
			fileBytes += float64(f.bytes)
			fileMs[fi] = append(fileMs[fi], secs*1e3)
			stats = append(stats, st)
			peakFrac = max(peakFrac, float64(st.PeakResidentBytes)/float64(budget))
		}
		m := f.layout()
		ok := err == nil && sampleOK(int(f.bytes/oocElem), 64, rng, func(p int) bool {
			var b [oocElem]byte
			if _, err := f.data.ReadAt(b[:], int64(p)*oocElem); err != nil {
				return false
			}
			return byteElemOK(b[:], oocElem, 0, f.seed, m(p))
		})
		res.op(err, ok)
	}

	// Whole cycles while they fit the time: each file forward and back,
	// in a seeded order.
	runCycles(r.seconds, func(k int) {
		for _, i := range rng.Perm(len(files)) {
			call(i, 2*k)
			call(i, 2*k+1)
		}
	})
	cache1 := inplace.PlannerCacheStats()

	// Full compare: both files are back in their source layout.
	for _, f := range files {
		res.op(nil, fileHolds(f, buf))
	}

	p50, slowest := typeLatency(fileMs)
	var peak float64
	for _, ps := range callPeak {
		peak = max(peak, median(ps))
	}
	if peak > 0 {
		res.e2e["peak_rss_mib"] = peak
	}
	res.e2e["gbps"] = fileBytes / sum(opSecs) / 1e9
	res.e2e["p50_ms"] = p50
	res.e2e["p99_ms"] = slowest
	for _, f := range files {
		res.note("ooc: %dx%d x %d B = %s file, budget %s (file/8), journal on, verify on; LLC %s",
			f.shape.rows, f.shape.cols, oocElem, mib(f.bytes), mib(f.bytes/8), mib(llcBytes()))
	}
	res.note("ooc: flush policy: data synced before every journal commit, journal synced at each pass; the page cache is warm, so the I/O measured is the page cache's, not a storage device's")
	res.note("metric setup_s = %.4f s (%s)", res.e2e["setup_s"], setupNote(setups))
	res.note("metric peak_rss_mib = %.4f MiB (the largest over the files of the median per-call peak resident set, sampled every 2 ms; VmHWM %.1f MiB)", peak, float64(peakRSS())/(1<<20))
	res.note("metric ooc_gbps = %.4f GB/s (reported as gbps; %d TransposeFile calls)", res.e2e["gbps"], len(opSecs))
	res.note("metric typical_call_ms = %.4f ms (reported as p50_ms; geometric mean over the %d files of each file's median call; n=%d calls)", p50, len(files), len(opSecs))
	res.note("metric slowest_call_ms = %.4f ms (reported as p99_ms; the slowest file's median call: %d calls per file are too few for a sampled p99)", slowest, len(opSecs)/len(files))

	if r.tr == nil {
		return res, nil
	}
	var rd, wr, rops, wops, jb, ph, pm float64
	for _, st := range stats {
		rd += float64(st.BytesRead)
		wr += float64(st.BytesWritten)
		rops += float64(st.ReadOps)
		wops += float64(st.WriteOps)
		jb += float64(st.JournalBytes)
		ph += float64(st.PrefetchHits)
		pm += float64(st.PrefetchMisses)
	}
	n := float64(len(stats))
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	L := res.layer
	L["ooc.backend_ops"] = (rops + wops) / n
	L["ooc.bytes_per_op"] = ratio(rd+wr, rops+wops)
	L["ooc.io_amp"] = (rd + wr) / fileBytes
	L["ooc.journal_bytes_per_byte"] = jb / fileBytes
	L["ooc.prefetch_hit_ratio"] = ratio(ph, ph+pm)
	L["ooc.peak_resident_frac"] = peakFrac
	L["ooc.allocs_per_run"] = ratio(float64(mallocs), float64(traced))
	perCall := func(ns int64) float64 { return float64(ns) / 1e9 / float64(traced) }
	L["ooc.read_busy_s"] = perCall(busy.read.Load())
	L["ooc.write_busy_s"] = perCall(busy.write.Load())
	L["ooc.journal_busy_s"] = perCall(busy.jrnRead.Load() + busy.jrnWrite.Load())
	L["ooc.sync_busy_s"] = perCall(busy.sync.Load())
	L["ooc.other_s"] = perCall(ownByName(spans, self, "ooc.transpose_file"))
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	L["planner.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["planner.cache_evictions"] = float64(cache1.Evictions - cache0.Evictions)
	// Tracing overhead: one traced call of every file and direction
	// against one untraced call, each the class's median.
	var untr, trc float64
	for _, fs := range side {
		for _, sd := range fs {
			if len(sd[0]) > 0 && len(sd[1]) > 0 {
				untr += median(sd[0])
				trc += median(sd[1])
			}
		}
	}
	L["trace.overhead_frac"] = trc/untr - 1
	res.note("layer ooc busy times are per traced TransposeFile call, half of them forward and half back; ooc.other_s is the call's wall time not covered by any backend call")
	res.note("layer trace overhead: one median call of each file and direction takes %.4f s untraced, %.4f s traced (%d of %d calls traced)", untr, trc, traced, len(opSecs))
	return res, nil
}

// fileHolds compares every element of f against its source layout.
func fileHolds(f *oocFile, buf []byte) bool {
	m := f.layout()
	n := int(f.bytes / oocElem)
	per := len(buf) / oocElem
	want := make([]byte, len(buf))
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		got := buf[:(hi-lo)*oocElem]
		if _, err := f.data.ReadAt(got, int64(lo)*oocElem); err != nil {
			return false
		}
		w := want[:len(got)]
		for p := lo; p < hi; p++ {
			putVal(w[(p-lo)*oocElem:], val(f.seed, m(p)))
		}
		if !bytes.Equal(got, w) {
			return false
		}
	}
	return true
}

// traced01 is 1 for a traced call (non-nil tracer) and 0 otherwise.
func traced01(tr *tracer) int {
	if tr != nil {
		return 1
	}
	return 0
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
