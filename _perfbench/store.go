package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"inplace"
)

// The store workload: CreateDataset, a timed Ingest of a seeded
// 2M-row × 16-field × 8-byte dataset (256 MiB, 8× the default 32 MiB
// block cache; three ingests, each into a fresh dataset), then a closed loop of reads from one reader — Zipf-
// skewed projections of 1-4 columns over 64Ki-row windows whose hot set
// fits the cache, uniform cold projections and ~5% window scans (AoS
// reassembly) — and a Verify at the end.

const (
	storeIngests = 3 // timed ingests per run; the median is reported
	storeFields  = 16
	storeElem    = 8
	storeWindow  = 64 << 10 // rows per read window
)

// storeSource serves the seeded AoS bytes to Ingest and notes when the
// last byte left, which separates the source-bound part of ingest from
// its tail (last chunk and seal).
type storeSource struct {
	data     []byte
	off      int
	lastRead int64
}

func (s *storeSource) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	if s.off == len(s.data) {
		s.lastRead = now()
	}
	return n, nil
}

// fillAoS writes the dataset's records: field f of row i is the low 8
// bytes of val(seed, i*fields+f).
func fillAoS(dst []byte, seed uint64) {
	n := len(dst) / storeElem
	parallelRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			putVal(dst[i*storeElem:], val(seed, i))
		}
	})
}

// storeRead is one read of the loop.
type storeRead struct {
	scan   bool
	cols   []int
	lo, hi int
}

// storeDraws are the read loop's seeded skews: over windows and over
// columns.
type storeDraws struct {
	rng          *rand.Rand
	windows      int
	wZipf, cZipf *rand.Zipf
}

func newStoreDraws(rng *rand.Rand, windows int) *storeDraws {
	return &storeDraws{
		rng: rng, windows: windows,
		wZipf: rand.NewZipf(rng, 1.5, 1, uint64(windows-1)),
		cZipf: rand.NewZipf(rng, 1.5, 1, storeFields-1),
	}
}

// next draws a read: 5% window scans, 75% hot projections (window and
// columns Zipf-skewed, so the hot set fits the block cache), 20% cold
// projections (window and columns uniform).
func (d *storeDraws) next() storeRead {
	u := d.rng.Float64()
	hot := u >= 0.05 && u < 0.80
	w := d.rng.Intn(d.windows)
	if hot {
		w = int(d.wZipf.Uint64())
	}
	rd := storeRead{lo: w * storeWindow, hi: (w + 1) * storeWindow}
	if u < 0.05 {
		rd.scan = true
		return rd
	}
	k := 1 + d.rng.Intn(4)
	if !hot {
		rd.cols = d.rng.Perm(storeFields)[:k]
		return rd
	}
	for len(rd.cols) < k {
		c := int(d.cZipf.Uint64())
		dup := false
		for _, x := range rd.cols {
			dup = dup || x == c
		}
		if !dup {
			rd.cols = append(rd.cols, c)
		}
	}
	return rd
}

func runStore(r *run) (*result, error) {
	rows := 2 << 20
	if r.probe {
		rows = 4 * storeWindow
	}
	res := newResult()
	rng := rand.New(rand.NewSource(int64(r.seed)))
	seed := bufSeed(r.seed, 6)
	total := rows * storeFields * storeElem

	// Set-up: generate the AoS source and create the dataset. Repeated
	// setupReps times (all but the last dataset are discarded); the
	// median is reported.
	var src []byte
	var ds *inplace.Dataset
	var dir string
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		if src == nil {
			src = make([]byte, total)
		}
		fillAoS(src, seed)
		dir = filepath.Join(r.work, fmt.Sprintf("store-%d", rep))
		var err error
		if ds, err = inplace.CreateDataset(dir, rows, storeFields, storeElem); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			ds.Close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	res.e2e["setup_s"] = median(setups)
	defer func() { os.RemoveAll(dir) }()

	// storeIngests timed ingests, each into a fresh dataset (the first
	// into the one the set-up created); the median is reported and the
	// last dataset is read.
	cache0 := inplace.PlannerCacheStats()
	var ingests, seals []float64
	var ist inplace.DatasetStats
	for i := 0; i < storeIngests; i++ {
		var err error
		if i > 0 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			dir = filepath.Join(r.work, fmt.Sprintf("store-ingest-%d", i))
			if ds, err = inplace.CreateDataset(dir, rows, storeFields, storeElem); err != nil {
				return nil, err
			}
		}
		source := &storeSource{data: src}
		sp := r.tr.begin("tilestore.ingest", -1, int64(i))
		t0 := now()
		err = ds.Ingest(source)
		t1 := now()
		r.tr.endAt(sp, t1)
		res.op(err, true)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		ingests = append(ingests, float64(t1-t0)/1e9)
		seals = append(seals, float64(t1-source.lastRead)/1e9)
		ist = ds.Stats()
		if err := ds.Close(); err != nil {
			return nil, err
		}
	}
	src = nil
	runtime.GC() // the reads start without the source's 256 MiB in the heap
	ingestSecs := median(ingests)

	rd, err := inplace.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	defer rd.Close()

	// Closed-loop reads for the rest of the run's seconds (at least
	// half of them); traced runs trace every other read.
	draws := newStoreDraws(rng, rows/storeWindow)
	dst := make([]byte, storeWindow*storeFields*storeElem)
	var lat, latTr, latUn, scanSecs []float64
	var missDelta []uint64
	var delivered, scanBytes float64
	st0 := rd.Stats()
	readStart := time.Now()
	readSecs := max(r.seconds-sum(ingests), r.seconds/2)
	if r.probe {
		readSecs = 0.5
	}
	deadline := readStart.Add(time.Duration(readSecs * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		q := draws.next()
		tr := (*tracer)(nil)
		if i%2 == 1 {
			tr = r.tr
		}
		root := tr.begin("store.read", -1, int64(i))
		n := (q.hi - q.lo) * storeElem
		var sp int32
		before := rd.Stats().CacheMisses
		a := now()
		if q.scan {
			n *= storeFields
			sp = tr.begin("tilestore.scan", root, int64(i))
			err = rd.Scan(dst[:n], q.lo, q.hi)
		} else {
			n *= len(q.cols)
			sp = tr.begin("tilestore.project", root, int64(i))
			err = rd.Project(dst[:n], q.cols, q.lo, q.hi)
		}
		b := now()
		tr.endAt(sp, b)
		if err == nil { // a failed read counts as failed, not as a sample
			missDelta = append(missDelta, rd.Stats().CacheMisses-before)
			ms := float64(b-a) / 1e6
			lat = append(lat, ms)
			if tr != nil {
				latTr = append(latTr, ms)
			} else {
				latUn = append(latUn, ms)
			}
			delivered += float64(n)
			if q.scan {
				scanSecs = append(scanSecs, ms/1e3)
				scanBytes += float64(n)
			}
		}
		ck := tr.begin("oracle.sample", root, int64(i))
		width := storeFields
		col := func(c int) int { return c }
		if !q.scan {
			width = len(q.cols)
			col = func(c int) int { return q.cols[c] }
		}
		ok := err == nil && sampleOK(q.hi-q.lo, 32, rng, func(p int) bool {
			c := rng.Intn(width)
			return byteElemOK(dst, storeElem, p*width+c, seed, (q.lo+p)*storeFields+col(c))
		})
		tr.end(ck)
		tr.end(root)
		res.op(err, ok)
	}
	readPhase := time.Since(readStart).Seconds()
	st1 := rd.Stats()
	cache1 := inplace.PlannerCacheStats()

	sp := r.tr.begin("tilestore.verify", -1, 0)
	v0 := time.Now()
	err = rd.Verify()
	verifySecs := time.Since(v0).Seconds()
	r.tr.end(sp)
	res.op(err, true)

	d := summarize(lat)
	ingestGBps := float64(total) / ingestSecs / 1e9
	res.e2e["gbps"] = ingestGBps
	res.e2e["p50_ms"] = d.P50
	res.e2e["p99_ms"] = d.P99
	res.note("store: %d rows x %d fields x %d B = %s dataset, default block cache %s (%.0fx), chunk %d rows; LLC %s",
		rows, storeFields, storeElem, mib(int64(total)), mib(32<<20), float64(total)/(32<<20), rd.ChunkRows(), mib(llcBytes()))
	res.note("store: flush policy: one fsync at seal plus the meta rename")
	res.note("metric setup_s = %.4f s (%s)", res.e2e["setup_s"], setupNote(setups))
	res.note("metric ingest_gbps = %.4f GB/s (reported as gbps; median of %d ingests of %s, median %.4f s)", ingestGBps, len(ingests), mib(int64(total)), ingestSecs)
	res.note("metric read_p50_ms = %.4f ms (reported as p50_ms; n=%d reads)", d.P50, d.N)
	res.note("metric read_p99_ms = %.4f ms (reported as p99_ms; n=%d, %d beyond; %s)", d.P99, d.N, d.Beyond99, d.tailNote())
	res.note("metric read_gbps = %.4f GB/s (not gated; %s delivered in a %.3f s read phase)", delivered/readPhase/1e9, mib(int64(delivered)), readPhase)

	if r.tr == nil {
		return res, nil
	}
	L := res.layer
	hits, misses := splitByMisses(lat, missDelta)
	dh, dm := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	L["tilestore.cache_hit_ratio"] = ratio(dh, dh+dm)
	L["tilestore.backend_bytes_per_byte"] = ratio(float64(st1.BytesRead-st0.BytesRead), delivered)
	L["tilestore.read_ops_per_read"] = ratio(float64(st1.ReadOps-st0.ReadOps), float64(len(lat)))
	L["tilestore.hit_p50_ms"] = median(hits)
	L["tilestore.miss_p50_ms"] = median(misses)
	var ss float64
	for _, x := range scanSecs {
		ss += x
	}
	L["tilestore.scan_gbps"] = ratio(scanBytes, ss) / 1e9
	L["tilestore.write_amp"] = float64(ist.BytesWritten) / float64(total)
	L["tilestore.write_ops"] = float64(ist.WriteOps)
	L["tilestore.seal_s"] = median(seals)
	L["tilestore.verify_gbps"] = float64(total) / verifySecs / 1e9
	ph, pm := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	L["planner.cache_hit_ratio"] = ratio(ph, ph+pm)
	L["planner.cache_evictions"] = float64(cache1.Evictions - cache0.Evictions)
	L["trace.overhead_frac"] = median(latTr)/median(latUn) - 1
	res.note("layer reads: %d hits (p50 %.4f ms), %d misses (p50 %.4f ms), classified by each read's cache-miss delta", len(hits), median(hits), len(misses), median(misses))
	res.note("layer tilestore.seal_s is Ingest's tail after the source was drained: last chunk plus seal")
	res.note("layer trace overhead: untraced read p50 %.4f ms (n=%d), traced %.4f ms (n=%d)", median(latUn), len(latUn), median(latTr), len(latTr))
	return res, nil
}
