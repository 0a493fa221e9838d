// Package ooc transposes row-major matrices that live on storage rather
// than in memory: any io.ReaderAt+io.WriterAt backend, under a caller-
// specified scratch-memory budget.
//
// The engine is the paper's C2R/R2C decomposition lifted from cache
// blocks to storage segments. Every pass — column pre-rotation, row
// shuffle and the column shuffle s'_j (Equation 26) — touches the flat
// buffer along only one axis, so each becomes a schedule of independent
// panels: vertical panels (full-height column slabs) for the rotation
// and the column shuffle, horizontal panels (runs of full rows) for the
// row shuffle. The column shuffle runs as one gather per column instead
// of the in-memory engine's rotation plus row permute (Equations
// 32–35), so a run makes three passes over the file for non-coprime
// shapes and two for coprime ones. Theorem 7's linearization
// independence is what makes the segment boundaries arbitrary: the
// permutation algebra never couples two panels of the same pass.
//
// Each pass is a sequential loop over its panels with a single panel
// buffer: read the panel, journal its undo image, permute it in place
// (every column or row through a per-worker scratch line, the lines
// split across the process-wide worker pool), write it back with
// adjacent spans combined into single backend calls, and commit. A
// panel of minimum width is one full column or one full row, so the
// budget floor — one such panel plus one line — is 2·max(m,n) elements:
// the decomposition's O(max(m,n)) auxiliary bound, made literal as a
// hard memory ceiling. With an optional journal, every segment write is
// preceded by a durable undo image and followed by a CRC32C-checksummed
// commit record, so a run killed at any point resumes to the
// bit-identical result.
package ooc

import (
	"fmt"

	"inplace/internal/parallel"
)

// Run transposes the row-major cfg.Rows×cfg.Cols matrix of
// cfg.ElemSize-byte elements stored on data, in place on the backend,
// within cfg.Budget bytes of resident scratch. Afterwards data holds
// the row-major Cols×Rows transpose.
func Run(data Backend, cfg Config) (_ Stats, err error) {
	sched, err := newSchedule(cfg)
	if err != nil {
		return Stats{}, err
	}
	if cfg.Journal == nil && (cfg.Resume || cfg.Verify) {
		return Stats{}, fmt.Errorf("%w (resume=%v verify=%v)", ErrNoJournal, cfg.Resume, cfg.Verify)
	}
	if sched.identity {
		// 1×n and m×1 matrices transpose to themselves linearly.
		return Stats{}, nil
	}

	r := &runner{cfg: cfg, sched: sched, data: data}
	// Fold this run's counters into the process-wide registry aggregates
	// on every exit path (identity no-ops and config errors excluded).
	defer func() { r.ctr.publish(err != nil) }()

	st := &resumeState{committed: map[int]commitRec{}, intents: map[int]intent{}, finalSums: map[int]uint64{}}
	finalPass := len(sched.passes) - 1
	if cfg.Journal != nil {
		if cfg.Resume {
			r.jrn, st, err = openJournal(cfg.Journal, sched, cfg, &r.ctr)
		} else {
			r.jrn, err = newJournal(cfg.Journal, sched.geom(cfg.Rows, cfg.Cols), &r.ctr)
		}
		if err != nil {
			return r.ctr.snapshot(0), err
		}
	}

	// One panel buffer and one scratch line per worker: the engine's
	// entire resident footprint, apart from per-pass bookkeeping. A
	// resume may have changed both, so they are sized only now.
	unit, line := int(sched.unitBytes), sched.lineBytes
	scratch := make([]byte, unit+sched.workers*line)
	r.panel = scratch[:unit:unit]
	r.lines = make([][]byte, sched.workers)
	for w := range r.lines {
		off := unit + w*line
		r.lines[w] = scratch[off : off+line : off+line]
	}
	r.ctr.peakResident.Observe(uint64(len(scratch)))
	r.pf = func(n int, body func(worker, lo, hi int)) { body(0, 0, n) }
	if sched.workers > 1 {
		pool := parallel.Shared()
		workers := sched.workers
		r.pf = func(n int, body func(worker, lo, hi int)) { pool.For(n, workers, body) }
	}

	if st.donePasses < len(sched.passes) {
		if err := r.recheckCommits(sched.passes[st.donePasses], st); err != nil {
			return r.ctr.snapshot(0), err
		}
		if err := r.restoreIntents(sched.passes[st.donePasses], st); err != nil {
			return r.ctr.snapshot(0), err
		}
	}

	sums := st.finalSums
	for pi := st.donePasses; pi < len(sched.passes); pi++ {
		var skip map[int]commitRec
		if pi == st.donePasses {
			skip = st.committed
		}
		var passSums map[int]uint64
		if pi == finalPass && r.jrn != nil {
			passSums = sums
		}
		if err := r.runPass(pi, sched.passes[pi], skip, passSums); err != nil {
			return r.ctr.snapshot(pi), err
		}
		if r.jrn != nil {
			if err := syncBackend(r.data, "data"); err != nil {
				return r.ctr.snapshot(pi), err
			}
			if err := r.jrn.passDone(pi); err != nil {
				return r.ctr.snapshot(pi), err
			}
		}
	}

	if cfg.Verify {
		if err := r.verifyFinal(sched.passes[finalPass], sums); err != nil {
			return r.ctr.snapshot(len(sched.passes)), err
		}
	}
	return r.ctr.snapshot(len(sched.passes)), nil
}

// runner is the per-run execution state.
type runner struct {
	cfg   Config
	sched *schedule
	data  Backend
	jrn   *journal
	ctr   counters
	panel []byte   // the resident panel: read, undo image, transform, write
	lines [][]byte // one scratch line per transform worker
	pf    parallelFor
}

// runPass executes one pass's segment schedule. skip holds units the
// journal proved committed; sums, when non-nil, collects the per-unit
// checksums of the final pass.
func (r *runner) runPass(pi int, p pass, skip map[int]commitRec, sums map[int]uint64) error {
	for u := 0; u < p.units; u++ {
		if _, ok := skip[u]; ok {
			r.ctr.segmentsSkipped.Inc()
			continue
		}
		g := r.sched.unit(p, u)
		buf := r.panel[:r.sched.bytes(g)]
		if err := r.readUnit(g, buf); err != nil {
			return err
		}
		// The undo image must be durable before the region is
		// overwritten; intent syncs the journal.
		if r.jrn != nil {
			if err := r.jrn.intent(pi, u, buf); err != nil {
				return err
			}
		}
		r.sched.transform(p, g, buf, r.lines, r.pf)
		r.ctr.segmentsTransformed.Inc()
		if err := r.writeUnit(g, buf); err != nil {
			return err
		}
		if r.jrn != nil {
			sum := CRC32C(buf)
			if sums != nil {
				sums[u] = sum
			}
			if err := r.jrn.commit(pi, u, sum); err != nil {
				return err
			}
		}
	}
	return nil
}

// recheckCommits re-checksums every committed unit of the interrupted
// pass. Data is synced only at pass end, so a commit record can be
// durable over data that never reached the backend; such a unit is
// moved back to the intents, to be rolled back from its undo image and
// re-executed.
func (r *runner) recheckCommits(p pass, st *resumeState) error {
	for u, c := range st.committed {
		g := r.sched.unit(p, u)
		buf := r.panel[:r.sched.bytes(g)]
		if err := r.readUnit(g, buf); err != nil {
			return err
		}
		if CRC32C(buf) != c.sum {
			st.intents[u] = c.undo // restoreIntents rejects a missing image
			delete(st.committed, u)
		}
	}
	return nil
}

// restoreIntents rolls back the in-flight segments of an interrupted
// pass from their journal undo images, returning the matrix to the
// exact pre-segment state so re-execution reproduces the committed
// result.
func (r *runner) restoreIntents(p pass, st *resumeState) error {
	for u, it := range st.intents {
		g := r.sched.unit(p, u)
		nb := r.sched.bytes(g)
		if it.payloadLen != int64(nb) {
			return fmt.Errorf("%w: undo image for unit %d is %d bytes, want %d", ErrJournalCorrupt, u, it.payloadLen, nb)
		}
		buf := r.panel[:nb]
		if err := r.readFull(r.cfg.Journal, buf, it.payloadOff); err != nil {
			return err
		}
		if err := r.writeUnit(g, buf); err != nil {
			return err
		}
		r.ctr.segmentsRestored.Inc()
	}
	return nil
}

// verifyFinal re-reads every segment of the final pass and checks it
// against the checksum committed in the journal.
func (r *runner) verifyFinal(p pass, sums map[int]uint64) error {
	for u := 0; u < p.units; u++ {
		g := r.sched.unit(p, u)
		buf := r.panel[:r.sched.bytes(g)]
		want, ok := sums[u]
		if !ok {
			return fmt.Errorf("%w: no commit checksum for final-pass unit %d", ErrJournalCorrupt, u)
		}
		if err := r.readUnit(g, buf); err != nil {
			return err
		}
		if got := CRC32C(buf); got != want {
			return corruptSegmentErr(len(r.sched.passes)-1, u, want, got)
		}
	}
	return nil
}
