package ooc

import (
	"io"

	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
)

// Backend is the storage a matrix is transposed on: random-access reads
// and writes, with no seek state.
// *os.File satisfies it; so does any object store adapter exposing
// ranged reads and writes.
type Backend interface {
	io.ReaderAt
	io.WriterAt
}

// syncer is the optional durability upgrade of a Backend or Journal
// backend. When the data backend implements it, the engine syncs the
// data at the end of every pass, before the pass-done record makes the
// pass durable in the journal. Segment commits inside a pass are not
// preceded by a data sync: a resume re-checksums every committed segment
// of the interrupted pass against its commit record and rolls back and
// re-executes any whose data did not survive.
type syncer interface {
	Sync() error
}

// Config parameterizes one out-of-core transposition.
type Config struct {
	// Rows, Cols and ElemSize describe the row-major matrix on the
	// backend: Rows*Cols elements of ElemSize bytes each.
	Rows, Cols, ElemSize int

	// Budget is the scratch-memory ceiling in bytes. The engine holds
	// one panel plus one scratch line of max(Rows,Cols)*ElemSize bytes
	// per transform worker, and sizes both to stay within it; the floor
	// is 2*max(Rows,Cols)*ElemSize (one panel of minimum width and one
	// line — the decomposition's O(max(m,n)) auxiliary bound made
	// literal).
	Budget int64

	// Workers is the transform parallelism within a resident panel;
	// 0 means GOMAXPROCS. It is clamped so every worker's scratch line
	// fits the budget next to the panel. Workers dispatch onto the
	// process-wide persistent pool (internal/parallel.Shared).
	Workers int

	// SegmentBytes overrides the derived panel size; 0 derives it as
	// Budget minus the workers' scratch lines. Values below the
	// schedule floor are raised; values that would burst the budget
	// shrink the workers, then the segment.
	SegmentBytes int64

	// Dir forces the C2R (DirC2R) or R2C (DirR2C) formulation; DirAuto
	// applies the shape heuristic of the in-memory planner.
	Dir Dir

	// Journal enables crash-safe progress: undo images and segment
	// commits are appended to it, making an interrupted run resumable.
	// Nil disables journaling (and resume) entirely.
	Journal Backend

	// Resume replays the journal instead of starting fresh: committed
	// segments whose data still matches their commit checksum are
	// skipped, the others and every in-flight segment are rolled back
	// from their undo images and re-executed. Requires Journal.
	Resume bool

	// Verify re-reads every segment of the final pass after completion
	// and checks it against the checksum committed in the journal,
	// failing with ErrCorruptSegment on mismatch. Requires Journal.
	Verify bool

	// Retries is how many times a failed or short backend call is
	// re-issued before the run fails with ErrShortRead/ErrShortWrite.
	// 0 means 2.
	Retries int
}

// Dir selects the permutation pipeline.
type Dir int

const (
	// DirAuto picks C2R when rows <= cols, R2C otherwise — the same
	// shorter-internal-columns heuristic as the in-memory planner.
	DirAuto Dir = iota
	// DirC2R forces the C2R pipeline.
	DirC2R
	// DirR2C forces the R2C pipeline.
	DirR2C
)

func (c Config) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 2
}

// passKind distinguishes the two panel orientations of the schedule.
type passKind uint8

const (
	// passVertical reads/writes column panels: full-height slabs of
	// consecutive columns, one strided span per matrix row.
	passVertical passKind = iota
	// passHorizontal reads/writes row panels: contiguous runs of
	// consecutive full rows, a single span.
	passHorizontal
)

// passOp identifies the permutation a pass applies to each resident
// panel.
type passOp uint8

const (
	opRotPre     passOp = iota + 1 // column j rotated by +⌊j/b⌋ (Eq. 23)
	opRotNegPre                    // column j rotated by -⌊j/b⌋ (Eq. 36)
	opShuffleC2R                   // row i permuted through d'_i (Eq. 31)
	opShuffleR2C                   // row i gathered through d'_i (Eq. 24)
	opColC2R                       // column j gathered through s'_j (Eq. 26)
	opColR2C                       // column j permuted through s'_j⁻¹ (Eqs. 34, 35)
)

// pass is one file-scope permutation pass: a panel orientation, a
// permutation, and a unit count derived from the panel width.
type pass struct {
	kind  passKind
	op    passOp
	units int
}

// schedule is the resolved execution plan of one out-of-core run: the
// cr.Plan index algebra, the byte geometry, the budget-derived panel
// widths and the pass sequence. It lifts the decomposition from cache
// blocks to storage segments, which Theorem 7's linearization
// independence makes legal: pre-rotation, row shuffle and the column
// shuffle s'_j as one gather per column. The in-memory engine factors
// s'_j into a rotation and a row permute (Equations 32–35) for cache
// locality; on storage that factoring would cost a whole extra pass.
type schedule struct {
	plan *cr.Plan
	elem int
	c2r  bool

	// m and n are the pass geometry: the buffer is interpreted as an
	// m×n row-major grid for every pass, in both directions (the
	// decomposition never changes the linearization mid-run).
	m, n int
	nm   int // n mod m: the per-row step of the column shuffle's source row

	vw int // vertical panel width in columns (>= 1)
	hh int // horizontal panel height in rows (>= 1)

	unitBytes int64 // largest panel byte size; the panel buffer is this big
	lineBytes int   // one worker's scratch line: max(m,n)*elem
	workers   int

	passes []pass

	identity bool // degenerate shapes: the transpose is a no-op
}

// minBudget returns the schedule floor for a shape: one panel of
// minimum width and one scratch line.
func minBudget(rows, cols, elem int) (int64, bool) {
	maxDim := rows
	if cols > maxDim {
		maxDim = cols
	}
	per, ok := mathutil.CheckedMul(maxDim, elem)
	if !ok {
		return 0, false
	}
	floor, ok := mathutil.CheckedMul(per, 2)
	if !ok {
		return 0, false
	}
	return int64(floor), true
}

// newSchedule validates a config and derives the segment schedule.
func newSchedule(cfg Config) (*schedule, error) {
	rows, cols, elem := cfg.Rows, cfg.Cols, cfg.ElemSize
	if rows <= 0 || cols <= 0 || elem <= 0 {
		return nil, shapeErr(rows, cols, elem)
	}
	size, ok := mathutil.CheckedMul(rows, cols)
	if !ok {
		return nil, overflowErr(rows, cols)
	}
	if _, ok := mathutil.CheckedMul(size, elem); !ok {
		return nil, overflowErr(rows, cols)
	}

	s := &schedule{elem: elem, workers: parallel.Workers(cfg.Workers)}

	if rows == 1 || cols == 1 {
		// A 1×n or m×1 matrix is its own transpose linearization.
		s.identity = true
		return s, nil
	}

	switch cfg.Dir {
	case DirC2R:
		s.c2r = true
	case DirR2C:
		s.c2r = false
	default:
		s.c2r = rows <= cols
	}
	if s.c2r {
		s.plan = cr.NewPlan(rows, cols)
	} else {
		s.plan = cr.NewPlan(cols, rows)
	}
	s.m, s.n = s.plan.M, s.plan.N
	s.nm = s.plan.DivM().Mod(s.n)

	floor, ok := minBudget(rows, cols, elem)
	if !ok {
		return nil, overflowErr(rows, cols)
	}
	if cfg.Budget < floor {
		return nil, budgetErr(cfg.Budget, floor)
	}

	// Resolve workers and segment size against the budget: one panel
	// plus one line per worker is resident, so seg + workers*line <=
	// budget. The floor leaves room for exactly one minimum panel (one
	// full column or row, which is at most a line) and one line.
	line := floor / 2
	s.lineBytes = int(line)
	seg := line // a derived segment takes what the workers leave
	if cfg.SegmentBytes > 0 {
		seg = min(max(cfg.SegmentBytes, line), cfg.Budget-line)
	}
	s.workers = int(min(int64(s.workers), (cfg.Budget-seg)/line))
	if cfg.SegmentBytes <= 0 {
		seg = cfg.Budget - int64(s.workers)*line
	}

	if s.c2r {
		if !s.plan.Coprime {
			s.passes = append(s.passes, pass{kind: passVertical, op: opRotPre})
		}
		s.passes = append(s.passes,
			pass{kind: passHorizontal, op: opShuffleC2R},
			pass{kind: passVertical, op: opColC2R},
		)
	} else {
		s.passes = append(s.passes,
			pass{kind: passVertical, op: opColR2C},
			pass{kind: passHorizontal, op: opShuffleR2C},
		)
		if !s.plan.Coprime {
			s.passes = append(s.passes, pass{kind: passVertical, op: opRotNegPre})
		}
	}
	// Panel widths from the segment size. Both divisions are exact
	// integer floors and both floors are >= 1 by the budget check.
	s.setPanels(clampDim(seg/int64(s.m*elem), s.n), clampDim(seg/int64(s.n*elem), s.m))
	return s, nil
}

// setPanels fixes the panel widths and derives the panel buffer size
// and every pass's unit count from them.
func (s *schedule) setPanels(vw, hh int) {
	s.vw, s.hh = vw, hh
	vBytes := int64(s.m) * int64(vw) * int64(s.elem)
	hBytes := int64(hh) * int64(s.n) * int64(s.elem)
	s.unitBytes = max(vBytes, hBytes)
	for i := range s.passes {
		if s.passes[i].kind == passVertical {
			s.passes[i].units = (s.n + vw - 1) / vw
		} else {
			s.passes[i].units = (s.m + hh - 1) / hh
		}
	}
}

// adoptPanels switches the schedule to the panel widths a resumed
// journal recorded. They differ from the derived ones when the worker
// count changed since the journal was written (the segment is what the
// workers' lines leave of the budget); the recorded panel wins and the
// workers are clamped again so it and their lines fit the budget.
func (s *schedule) adoptPanels(vw, hh int, budget int64) error {
	if vw == s.vw && hh == s.hh {
		return nil
	}
	if vw < 1 || vw > s.n {
		return mismatchErr("segment_cols", int64(vw), int64(s.vw))
	}
	if hh < 1 || hh > s.m {
		return mismatchErr("segment_rows", int64(hh), int64(s.hh))
	}
	s.setPanels(vw, hh)
	fit := (budget - s.unitBytes) / int64(s.lineBytes)
	if fit < 1 {
		return mismatchErr("segment_bytes", s.unitBytes, budget-int64(s.lineBytes))
	}
	s.workers = int(min(int64(s.workers), fit))
	return nil
}

// Validate resolves the full segment schedule for cfg without running
// it, surfacing every configuration error Run would.
func Validate(cfg Config) error {
	_, _, err := Resolve(cfg)
	return err
}

// Resolve validates cfg like Validate and returns the panel buffer size
// and the transform worker count the schedule derives for it.
func Resolve(cfg Config) (panelBytes int64, workers int, err error) {
	s, err := newSchedule(cfg)
	if err != nil {
		return 0, 0, err
	}
	if cfg.Journal == nil && (cfg.Resume || cfg.Verify) {
		return 0, 0, ErrNoJournal
	}
	return s.unitBytes, s.workers, nil
}

// MinBudget returns the smallest legal Config.Budget for a shape:
// 2*max(rows,cols)*elem bytes (one panel of minimum width and one
// scratch line). ok is false when that product overflows.
func MinBudget(rows, cols, elem int) (int64, bool) {
	if rows <= 0 || cols <= 0 || elem <= 0 {
		return 0, false
	}
	return minBudget(rows, cols, elem)
}

// clampDim clamps a panel width derived from the segment size to [1, max].
func clampDim(w int64, max int) int {
	if w < 1 {
		return 1
	}
	if w > int64(max) {
		return max
	}
	return int(w)
}

// unitGeom describes one unit of one pass: the panel's position and
// extent in the pass geometry.
type unitGeom struct {
	kind passKind
	lo   int // first column (vertical) or first row (horizontal)
	ext  int // columns (vertical) or rows (horizontal) in this panel
}

// unit returns the geometry of unit u of pass p.
func (s *schedule) unit(p pass, u int) unitGeom {
	if p.kind == passVertical {
		lo := u * s.vw
		ext := s.vw
		if lo+ext > s.n {
			ext = s.n - lo
		}
		return unitGeom{kind: passVertical, lo: lo, ext: ext}
	}
	lo := u * s.hh
	ext := s.hh
	if lo+ext > s.m {
		ext = s.m - lo
	}
	return unitGeom{kind: passHorizontal, lo: lo, ext: ext}
}

// bytes returns the panel byte size of a unit.
func (s *schedule) bytes(g unitGeom) int {
	if g.kind == passVertical {
		return s.m * g.ext * s.elem
	}
	return g.ext * s.n * s.elem
}

// spans invokes fn for each contiguous backend span of a unit, with the
// span's backend offset, its offset inside the panel buffer, and its
// length, merging adjacent spans (write-combining): a vertical panel
// covering every column collapses to one span, and a horizontal panel is
// a single span by construction.
func (s *schedule) spans(g unitGeom, fn func(off int64, bufOff, n int) error) error {
	e := int64(s.elem)
	if g.kind == passHorizontal {
		return fn(int64(g.lo)*int64(s.n)*e, 0, g.ext*s.n*s.elem)
	}
	if g.ext == s.n {
		// Full-width vertical panel: rows are adjacent on the backend.
		return fn(0, 0, s.m*s.n*s.elem)
	}
	rowBytes := g.ext * s.elem
	for i := 0; i < s.m; i++ {
		off := (int64(i)*int64(s.n) + int64(g.lo)) * e
		if err := fn(off, i*rowBytes, rowBytes); err != nil {
			return err
		}
	}
	return nil
}
