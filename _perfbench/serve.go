package main

import (
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inplace"
	"inplace/client"
	"inplace/internal/server"
)

// The serve workload: an in-process xposed daemon (server.New with the
// default Config) on loopback, driven open-loop by two client
// connections. Arrivals are seeded Poisson at fixed rates; each job is
// timed from when it was due. 90% of jobs are small (<= 32 KiB, the
// coalescer path), drawn Zipf-skewed from 512 shapes — more than the
// 128-entry planner cache — and 10% are medium (0.5-4 MiB) from 16
// shapes.

type serveShape struct{ rows, cols, elem int }

func (s serveShape) bytes() int { return s.rows * s.cols * s.elem }

// serveCatalog returns the fixed small and medium shape sets.
func serveCatalog() (small, medium []serveShape) {
	seen := map[serveShape]bool{}
	for i := 0; len(small) < 512; i++ {
		s := serveShape{rows: 8 + i*37%113, cols: 8 + i*53%97, elem: 4 << (i % 2)}
		if b := s.bytes(); b >= 1<<10 && b <= 32<<10 && !seen[s] {
			seen[s] = true
			small = append(small, s)
		}
	}
	for k := 0; k < 16; k++ {
		rows := 256 + 64*k
		target := float64(512<<10) * math.Pow(8, float64(k)/15) // 0.5 .. 4 MiB
		medium = append(medium, serveShape{rows: rows, cols: int(target / 8 / float64(rows)), elem: 8})
	}
	return small, medium
}

// p99Block is the job count of one nominal-phase block: the smallest
// whose p99 has 10 samples beyond it.
const p99Block = 1000

// serveConfig is the load the workload offers.
type serveConfig struct {
	nominalRate float64 // jobs/s of the latency phase
	nominalJobs int
	warmJobs    int
	ladder      rateLadder
	ladderStart int
	rungJobs    int     // jobs per rung: enough for 10 beyond the p99
	sloMs       float64 // p99 limit a rung must meet
}

// serveSettings sizes the phases: the nominal phase lasts the run's
// seconds, in whole blocks of p99Block jobs; the ladder search then
// takes the rungs it needs, rungJobs each. The limit sits near
// saturation, where the p99 climbs steeply, so the rung that crosses it
// moves little from run to run.
func serveSettings(r *run) serveConfig {
	c := serveConfig{
		nominalRate: 200, warmJobs: 300,
		ladder:      rateLadder{Base: 100, Step: 1.04, Top: 80},
		ladderStart: 56, rungJobs: 1000, sloMs: 100,
	}
	c.nominalJobs = max(1, int(c.nominalRate*r.seconds/p99Block)) * p99Block
	if r.probe {
		c.nominalJobs, c.warmJobs, c.rungJobs = 300, 50, 0
	}
	return c
}

// jobMix is a seeded job sequence with unit-rate arrival gaps. Medium
// jobs are stratified: exactly one in every ten, at a seeded position,
// cycling through the medium shapes in seeded order. The mix of every
// run is therefore the same and only its order and timing vary.
type jobMix struct {
	shape  []int // index into the combined catalog
	medium []bool
	gap    []float64 // exponential, mean 1
}

func newJobMix(rng *rand.Rand, zipf *rand.Zipf, nSmall, nMedium, n int) jobMix {
	m := jobMix{shape: make([]int, n), medium: make([]bool, n), gap: make([]float64, n)}
	var order []int
	pos := -1
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			pos = i + rng.Intn(10)
		}
		m.gap[i] = rng.ExpFloat64()
		if i != pos {
			m.shape[i] = int(zipf.Uint64())
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(nMedium)
		}
		m.shape[i], m.medium[i] = nSmall+order[0], true
		order = order[1:]
	}
	return m
}

// schedule returns the mix's due times at rate jobs/s from t0 (ns on
// the benchmark clock).
func (m jobMix) schedule(rate float64, t0 int64) []int64 {
	due := make([]int64, len(m.gap))
	t := float64(t0)
	for i, g := range m.gap {
		t += g / rate * 1e9
		due[i] = int64(t)
	}
	return due
}

// servedJob is one job's outcome.
type servedJob struct {
	jobTiming
	shape  int
	medium bool
	traced bool
	err    error
	ok     bool
	crc    uint32
}

// connCur publishes the job a client connection is running, so the
// server-side tap can parent its spans and classify the job.
type connCur struct {
	span   atomic.Int32
	op     atomic.Int64
	medium atomic.Bool
}

// serverJobTimes are the server-side stage times the tap observed (ms).
type serverJobTimes struct {
	mu                        sync.Mutex
	upload, compute, download []float64
	small, medium             []float64
}

// tapListener wraps the daemon's listener so the connection it accepts
// timestamps the server's reads and writes. Exactly one client dials
// it; cur is that client's published job.
type tapListener struct {
	net.Listener
	tr    *tracer
	times *serverJobTimes
	cur   *connCur
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tr: l.tr, times: l.times, cur: l.cur}, nil
}

// Phases of a tapped connection's exchange.
const (
	tapHello = iota
	tapIdle
	tapJob      // Job frame read, Accept not yet written
	tapUpload   // Accept written, Data frames arriving
	tapDownload // result being written
)

// tapConn follows the wire exchange from the server's side: the Job
// frame read opens a job, the Accept write ends admission, the last read
// before the first result write ends the upload, and the writes after
// it are the download. Only the server's handler goroutine calls it.
type tapConn struct {
	net.Conn
	tr    *tracer
	times *serverJobTimes
	cur   *connCur

	phase                                    int
	jobStart, acceptEnd, uploadEnd, resStart int64
	resEnd                                   int64
	parent                                   int32
	op                                       int64
	medium                                   bool
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t := now()
	if n > 0 {
		switch c.phase {
		case tapHello:
		case tapIdle, tapDownload:
			c.finish()
			c.phase, c.jobStart = tapJob, t
			c.parent, c.op, c.medium = c.cur.span.Load(), c.cur.op.Load(), c.cur.medium.Load()
		case tapUpload:
			c.uploadEnd = t
		}
	}
	if err != nil {
		c.finish()
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Write(p)
	t1 := now()
	switch c.phase {
	case tapHello:
		c.phase = tapIdle
	case tapJob:
		c.phase, c.acceptEnd, c.uploadEnd = tapUpload, t1, t1
	case tapUpload:
		c.phase, c.resStart, c.resEnd = tapDownload, t0, t1
	case tapDownload:
		c.resEnd = t1
	}
	return n, err
}

// finish records a completed job's stages.
func (c *tapConn) finish() {
	if c.phase != tapDownload {
		return
	}
	c.phase = tapIdle
	c.tr.add("server.admit", c.jobStart, c.acceptEnd, c.parent, c.op)
	c.tr.add("server.upload", c.acceptEnd, c.uploadEnd, c.parent, c.op)
	c.tr.add("server.compute", c.uploadEnd, c.resStart, c.parent, c.op)
	c.tr.add("server.download", c.resStart, c.resEnd, c.parent, c.op)
	ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
	t := c.times
	t.mu.Lock()
	t.upload = append(t.upload, ms(c.acceptEnd, c.uploadEnd))
	t.compute = append(t.compute, ms(c.uploadEnd, c.resStart))
	t.download = append(t.download, ms(c.resStart, c.resEnd))
	if c.medium {
		t.medium = append(t.medium, ms(c.jobStart, c.resEnd))
	} else {
		t.small = append(t.small, ms(c.jobStart, c.resEnd))
	}
	t.mu.Unlock()
}

// serveRig is a running daemon with its client connections.
type serveRig struct {
	srv   *server.Server
	lns   []net.Listener
	conns []*client.Client
	curs  []*connCur
	times *serverJobTimes
	wg    sync.WaitGroup
}

// startRig starts the daemon on loopback and dials two clients. With a
// tracer, the second client goes through a tapped listener.
func startRig(tr *tracer) (*serveRig, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	g := &serveRig{srv: srv, times: &serverJobTimes{}, curs: []*connCur{{}, {}}}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	g.serve(raw)
	addrs := []string{raw.Addr().String(), raw.Addr().String()}
	if tr != nil {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.close()
			return nil, err
		}
		g.serve(&tapListener{Listener: tl, tr: tr, times: g.times, cur: g.curs[1]})
		addrs[1] = tl.Addr().String()
	}
	for _, a := range addrs {
		c, err := client.Dial(a)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *serveRig) serve(ln net.Listener) {
	g.lns = append(g.lns, ln)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		_ = g.srv.Serve(ln) // returns nil once Close stops it
	}()
}

// close disconnects the clients, stops the daemon and waits for its
// accept loops to return.
func (g *serveRig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.srv.Close()
	g.wg.Wait()
}

// payloads holds each catalog shape's seeded input bytes.
type payloads struct {
	shapes []serveShape
	data   [][]byte
}

func newPayloads(shapes []serveShape) *payloads {
	p := &payloads{shapes: shapes, data: make([][]byte, len(shapes))}
	for i, s := range shapes {
		p.data[i] = make([]byte, s.bytes())
	}
	return p
}

// fill writes every shape's seeded payload. It runs on one goroutine:
// on the reference host a two-goroutine fill took either one or two
// times its best, depending on whether the second vCPU was free, which
// made setup_s bimodal between runs.
func (p *payloads) fill(seed uint64) {
	for i, s := range p.shapes {
		fillBytes(p.data[i], s.elem, shapeSeed(seed, i))
	}
}

func shapeSeed(seed uint64, i int) uint64 { return seed*4096 + uint64(i) }

// wantCRC is the CRC-32C of shape i's transposed payload.
func (p *payloads) wantCRC(seed uint64, i int) uint32 {
	s := p.shapes[i]
	out := make([]byte, s.bytes())
	m := transposed(s.rows, s.cols)
	for q := 0; q < s.rows*s.cols; q++ {
		src := m(q)
		copy(out[q*s.elem:(q+1)*s.elem], p.data[i][src*s.elem:(src+1)*s.elem])
	}
	return crc32.Checksum(out, castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// runPhase runs jobs open-loop over the rig's connections and returns
// their outcomes in due order. Each connection takes the next job when
// free and sleeps until it is due; connection 1 is traced when tr is set.
func runPhase(g *serveRig, p *payloads, seed uint64, mix jobMix, due []int64, tr *tracer, rng *rand.Rand) []servedJob {
	out := make([]servedJob, len(due))
	var next atomic.Int64
	maxBytes := 0
	for _, s := range p.shapes {
		maxBytes = max(maxBytes, s.bytes())
	}
	var wg sync.WaitGroup
	for ci, c := range g.conns {
		crng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctr := (*tracer)(nil)
			if ci == 1 {
				ctr = tr
			}
			buf := make([]byte, maxBytes)
			free := now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				shape, medium := mix.shape[i], mix.medium[i]
				s := p.shapes[shape]
				data := buf[:s.bytes()]
				copy(data, p.data[shape])
				if d := due[i] - now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				root := ctr.add("serve.job", due[i], -1, -1, int64(i))
				sp := ctr.begin("client.transpose", root, int64(i))
				g.curs[ci].span.Store(sp)
				g.curs[ci].op.Store(int64(i))
				g.curs[ci].medium.Store(medium)
				start := now()
				err := c.Transpose(data, s.rows, s.cols, s.elem)
				done := now()
				ctr.endAt(sp, done)
				ctr.endAt(root, done)
				o := servedJob{jobTiming: jobTiming{Due: due[i], Free: free, Start: start, Done: done},
					shape: shape, medium: medium, traced: ctr != nil, err: err}
				if err == nil {
					seed := shapeSeed(seed, shape)
					m := transposed(s.rows, s.cols)
					o.ok = sampleOK(s.rows*s.cols, 16, crng, func(q int) bool { return byteElemOK(data, s.elem, q, seed, m(q)) })
					o.crc = crc32.Checksum(data, castagnoli)
				}
				out[i] = o
				free = now()
			}
		}()
	}
	wg.Wait()
	return out
}

// rungPasses judges one rate: its p99 latency against the limit, and
// whether a backlog built up.
func rungPasses(js []servedJob, sloMs float64) (pass bool, p99 float64) {
	lat := make([]float64, len(js))
	tim := make([]jobTiming, len(js))
	for i, j := range js {
		lat[i] = float64(j.latency()) / 1e6
		tim[i] = j.jobTiming
		if j.err != nil {
			return false, math.Inf(1)
		}
	}
	p99 = percentile(lat, 99)
	return p99 <= sloMs && !backlogGrows(tim, int64(sloMs*1e6/4)), p99
}

func runServe(r *run) (*result, error) {
	cfg := serveSettings(r)
	res := newResult()
	small, medium := serveCatalog()
	shapes := append(append([]serveShape(nil), small...), medium...)
	rng := rand.New(rand.NewSource(int64(r.seed)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(small)-1))

	// Set-up: generate the payloads, start the daemon, dial the
	// clients. Repeated setupReps times; the median is reported.
	var g *serveRig
	var p *payloads
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if g != nil {
			g.close()
		}
		runtime.GC()
		t0 := time.Now()
		if p == nil {
			p = newPayloads(shapes)
		}
		p.fill(r.seed)
		var err error
		if g, err = startRig(r.tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer g.close()
	res.e2e["setup_s"] = median(setups)

	var all []servedJob
	record := func(js []servedJob) {
		for _, j := range js {
			res.op(j.err, j.err == nil && j.ok)
		}
		all = append(all, js...)
	}
	phase := func(mix jobMix, rate float64) []servedJob {
		js := runPhase(g, p, r.seed, mix, mix.schedule(rate, now()+int64(time.Millisecond)), r.tr, rng)
		record(js)
		return js
	}
	mix := func(n int) jobMix { return newJobMix(rng, zipf, len(small), len(medium), n) }

	phase(mix(cfg.warmJobs), cfg.nominalRate)
	cache0 := inplace.PlannerCacheStats()
	snap0 := g.srv.StatsSnapshot()
	nom := phase(mix(cfg.nominalJobs), cfg.nominalRate)
	cache1 := inplace.PlannerCacheStats()
	snap1 := g.srv.StatsSnapshot()

	var lat, late, latUn, latTr []float64
	var payload, busy float64
	for _, j := range nom {
		if j.err != nil {
			continue // counted as failed; its time is no sample
		}
		busy += float64(j.Done-j.Start) / 1e9
		l := float64(j.latency()) / 1e6
		lat = append(lat, l)
		late = append(late, float64(j.lateness())/1e6)
		if j.traced {
			latTr = append(latTr, l)
		} else {
			latUn = append(latUn, l)
		}
		payload += float64(shapes[j.shape].bytes())
	}
	d := summarize(lat)
	p99, blockP99s := blockP99(lat, p99Block)
	meanBytes := payload / float64(len(lat))

	// Capacity: the highest ladder rung whose p99 meets the limit with
	// no growing backlog.
	maxRate := 0.0
	if cfg.rungJobs > 0 {
		// Every rung replays one job sequence, rescaled to its rate. A
		// rung fails only when two attempts in a row miss, so one stall
		// of a shared host does not set the capacity.
		rungMix := mix(cfg.rungJobs)
		best, tried := cfg.ladder.search(cfg.ladderStart, 4, func(k int) bool {
			rate := cfg.ladder.rate(k)
			for attempt := 1; attempt <= 2; attempt++ {
				pass, p99 := rungPasses(phase(rungMix, rate), cfg.sloMs)
				res.note("serve: rung %d (%.1f jobs/s) attempt %d: p99 %.3f ms, pass=%v", k, rate, attempt, p99, pass)
				if pass {
					return true
				}
			}
			return false
		})
		if best >= 0 {
			maxRate = cfg.ladder.rate(best)
		}
		res.note("serve: ladder tried rungs %v, best %d", tried, best)
	}

	// Full compare: every job's output CRC-32C against its shape's
	// transposed payload.
	want := map[int]uint32{}
	for _, j := range all {
		if j.err != nil || !j.ok {
			continue // already counted as failed
		}
		w, ok := want[j.shape]
		if !ok {
			w = p.wantCRC(r.seed, j.shape)
			want[j.shape] = w
		}
		if j.crc != w {
			res.wrong++
			res.failed++
		}
	}

	res.e2e["gbps"] = payload / busy / 1e9
	res.e2e["p50_ms"] = d.P50
	res.e2e["p99_ms"] = p99
	res.note("serve: %d small shapes (<= 32 KiB, Zipf s=1.1) and %d medium shapes (0.5-4 MiB); planner cache 128 entries; LLC %s", len(small), len(medium), mib(llcBytes()))
	res.note("serve: flush policy: none (in-memory jobs; spilling disabled)")
	res.note("metric setup_s = %.4f s (%s)", res.e2e["setup_s"], setupNote(setups))
	res.note("metric job_p50_ms = %.4f ms (reported as p50_ms; n=%d at %.0f jobs/s)", d.P50, d.N, cfg.nominalRate)
	res.note("metric job_p99_ms = %.4f ms (reported as p99_ms; median of the p99s %.2f of %d-job blocks, each with 10 beyond; p99 of all n=%d is %.4f ms, %d beyond)", p99, blockP99s, p99Block, d.N, d.P99, d.Beyond99)
	res.note("metric conn_gbps = %.4f GB/s (reported as gbps; payload bytes per second a connection spent on its jobs, n=%d jobs at %.0f jobs/s)", res.e2e["gbps"], len(lat), cfg.nominalRate)
	res.note("metric max_rate_at_slo = %.1f jobs/s (not gated; p99 <= %.0f ms with no growing backlog, %d-job rungs; %.4f GB/s at %.0f mean job bytes)", maxRate, cfg.sloMs, cfg.rungJobs, maxRate*meanBytes/1e9, meanBytes)

	if r.tr == nil {
		return res, nil
	}
	L := res.layer
	t := g.times
	t.mu.Lock()
	L["server.upload_p50_ms"] = median(t.upload)
	L["server.compute_p50_ms"] = median(t.compute)
	L["server.compute_p99_ms"] = percentile(t.compute, 99)
	L["server.download_p50_ms"] = median(t.download)
	L["server.small_p50_ms"] = median(t.small)
	L["server.medium_p50_ms"] = median(t.medium)
	t.mu.Unlock()
	cnt := func(name string) float64 { return float64(snap1.Counters[name] - snap0.Counters[name]) }
	L["server.coalesce_jobs_per_batch"] = ratio(cnt("server_coalesced_jobs"), cnt("server_coalesced_batches"))
	L["server.shed_frac"] = ratio(cnt("server_shed"), cnt("server_jobs"))
	L["server.inflight_peak_mib"] = float64(snap1.Levels["server_inflight_bytes"].Peak) / (1 << 20)
	L["server.queue_depth_peak"] = float64(snap1.Levels["server_queue_depth"].Peak)
	L["gen.lateness_p99_ms"] = percentile(late, 99)
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	L["planner.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["planner.cache_evictions"] = float64(cache1.Evictions - cache0.Evictions)
	var probe [][2]int
	for i := len(small) - 16; i < len(small); i++ {
		probe = append(probe, [2]int{small[i].rows, small[i].cols})
	}
	cow, err := coldOverWarm(probe, r.seed)
	if err != nil {
		return nil, err
	}
	L["planner.first_exec_over_warm"] = cow
	L["trace.overhead_frac"] = median(latTr)/median(latUn) - 1
	res.note("layer trace overhead: untraced connection job p50 %.4f ms (n=%d), traced %.4f ms (n=%d)", median(latUn), len(latUn), median(latTr), len(latTr))
	return res, nil
}
