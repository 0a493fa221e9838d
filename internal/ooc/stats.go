package ooc

import "inplace/internal/stats"

// counters is the live metering surface of one run, built on the same
// internal/stats primitives the in-memory planner cache counters use.
// All fields are safe for concurrent update.
type counters struct {
	bytesRead    stats.Counter
	bytesWritten stats.Counter
	readOps      stats.Counter
	writeOps     stats.Counter
	retries      stats.Counter

	segmentsTransformed stats.Counter
	segmentsSkipped     stats.Counter // committed in the journal before this run
	segmentsRestored    stats.Counter // undo images replayed on resume

	journalBytes stats.Counter
	peakResident stats.Gauge
}

// Stats is the immutable snapshot of a run's counters that Run returns.
type Stats struct {
	// BytesRead and BytesWritten count data-backend I/O volume;
	// journal traffic is metered separately in JournalBytes.
	BytesRead    uint64
	BytesWritten uint64
	// ReadOps and WriteOps count backend calls after write-combining,
	// so ReadOps/BytesRead exposes the effective I/O granularity.
	ReadOps  uint64
	WriteOps uint64
	// Retries counts transient backend failures that were re-issued.
	Retries uint64

	// SegmentsTransformed counts units gathered by this run;
	// SegmentsSkipped counts units the journal proved already committed;
	// SegmentsRestored counts undo images replayed before re-execution.
	SegmentsTransformed uint64
	SegmentsSkipped     uint64
	SegmentsRestored    uint64

	// PrefetchHits and PrefetchMisses are always 0: each pass runs its
	// panels sequentially through one buffer, with no prefetch stage.
	// The fields remain so existing readers of the snapshot still build.
	PrefetchHits   uint64
	PrefetchMisses uint64

	// JournalBytes counts bytes appended to the journal (headers, undo
	// images and commit records).
	JournalBytes uint64

	// PeakResidentBytes is the high-water mark of scratch the engine
	// held at once: the panel buffer plus the workers' scratch lines.
	// It never exceeds the configured budget.
	PeakResidentBytes uint64

	// Passes is the number of permutation passes the schedule ran.
	Passes int
}

// Cumulative process-wide out-of-core metrics, registered on the
// default stats registry so exporters (the xposed /stats endpoint)
// enumerate them alongside the planner-cache counters. Per-run Stats
// snapshots stay the precise per-call surface; these aggregate across
// every run in the process.
var global = struct {
	runs, failures               *stats.Counter
	bytesRead, bytesWritten      *stats.Counter
	segsTransformed, segsSkipped *stats.Counter
	segsRestored, journalBytes   *stats.Counter
}{
	runs:            stats.Default().Counter("ooc_runs"),
	failures:        stats.Default().Counter("ooc_failures"),
	bytesRead:       stats.Default().Counter("ooc_bytes_read"),
	bytesWritten:    stats.Default().Counter("ooc_bytes_written"),
	segsTransformed: stats.Default().Counter("ooc_segments_transformed"),
	segsSkipped:     stats.Default().Counter("ooc_segments_skipped"),
	segsRestored:    stats.Default().Counter("ooc_segments_restored"),
	journalBytes:    stats.Default().Counter("ooc_journal_bytes"),
}

// publish folds one run's counters into the process-wide aggregates.
// Called exactly once per Run, on every exit path.
func (c *counters) publish(failed bool) {
	global.runs.Inc()
	if failed {
		global.failures.Inc()
	}
	global.bytesRead.Add(c.bytesRead.Load())
	global.bytesWritten.Add(c.bytesWritten.Load())
	global.segsTransformed.Add(c.segmentsTransformed.Load())
	global.segsSkipped.Add(c.segmentsSkipped.Load())
	global.segsRestored.Add(c.segmentsRestored.Load())
	global.journalBytes.Add(c.journalBytes.Load())
}

// snapshot freezes the counters into a Stats.
func (c *counters) snapshot(passes int) Stats {
	return Stats{
		BytesRead:           c.bytesRead.Load(),
		BytesWritten:        c.bytesWritten.Load(),
		ReadOps:             c.readOps.Load(),
		WriteOps:            c.writeOps.Load(),
		Retries:             c.retries.Load(),
		SegmentsTransformed: c.segmentsTransformed.Load(),
		SegmentsSkipped:     c.segmentsSkipped.Load(),
		SegmentsRestored:    c.segmentsRestored.Load(),
		JournalBytes:        c.journalBytes.Load(),
		PeakResidentBytes:   c.peakResident.Load(),
		Passes:              passes,
	}
}
