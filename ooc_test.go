package inplace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"inplace/internal/ooc"
	"inplace/internal/tune"
)

// writeTempMatrix materializes a random rows×cols matrix of e-byte
// elements in a temp file and returns the file and the expected
// transposed bytes.
func writeTempMatrix(t *testing.T, rows, cols, e int, seed int64) (*os.File, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := make([]byte, rows*cols*e)
	rng.Read(in)
	want := make([]byte, len(in))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			copy(want[(j*rows+i)*e:(j*rows+i+1)*e], in[(i*cols+j)*e:(i*cols+j+1)*e])
		}
	}
	f, err := os.CreateTemp(t.TempDir(), "ooc-*.mat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(in, 0); err != nil {
		t.Fatal(err)
	}
	return f, want
}

func readBack(t *testing.T, f *os.File, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTransposeFileLargerThanBudget is the acceptance path: the file is
// at least 4x the memory budget, the result is bit-exact against the
// out-of-place reference, and the engine's peak resident scratch stays
// within the budget.
func TestTransposeFileLargerThanBudget(t *testing.T) {
	const rows, cols, e = 256, 192, 8
	fileBytes := int64(rows * cols * e) // 384 KiB
	budget := fileBytes / 4             // 96 KiB
	f, want := writeTempMatrix(t, rows, cols, e, 1)
	defer f.Close()

	st, err := TransposeFile(f, rows, cols, e, OOCOptions{Budget: budget})
	if err != nil {
		t.Fatalf("TransposeFile: %v", err)
	}
	if got := readBack(t, f, len(want)); !bytes.Equal(got, want) {
		t.Fatal("result differs from out-of-place reference")
	}
	if int64(st.PeakResidentBytes) > budget {
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
	}
	if st.SegmentsTransformed == 0 || st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestTransposeFileJournalResume kills a journaled run mid-pass (via a
// write quota on the data backend) and checks that resume converges to
// the bit-exact transpose.
func TestTransposeFileJournalResume(t *testing.T) {
	const rows, cols, e = 64, 96, 8
	f, want := writeTempMatrix(t, rows, cols, e, 2)
	defer f.Close()
	jpath := filepath.Join(t.TempDir(), "journal")
	jf, err := os.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	budget, err := OOCMinBudget(rows, cols, e)
	if err != nil {
		t.Fatal(err)
	}
	budget *= 4

	// First attempt dies mid-pass: enough writes for a few segments to
	// commit (a narrow vertical panel takes one strided write per row),
	// then the backend goes dark.
	quota := &writeQuota{f: f, remaining: 150}
	o := OOCOptions{Budget: budget, Journal: jf, Retries: 1}
	if _, err := TransposeFile(quota, rows, cols, e, o); !errors.Is(err, ErrOOCShortWrite) {
		t.Fatalf("want ErrOOCShortWrite from quota'd run, got %v", err)
	}

	// Resume against the healthy file.
	o.Resume = true
	o.Verify = true
	st, err := TransposeFile(f, rows, cols, e, o)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := readBack(t, f, len(want)); !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from reference")
	}
	if st.SegmentsSkipped == 0 {
		t.Fatalf("resume re-did every segment: %+v", st)
	}
}

// writeQuota passes reads through and fails writes permanently once the
// quota is spent.
type writeQuota struct {
	f         *os.File
	remaining int
}

func (w *writeQuota) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }

func (w *writeQuota) WriteAt(p []byte, off int64) (int, error) {
	if w.remaining <= 0 {
		return 0, errors.New("write quota exhausted")
	}
	w.remaining--
	return w.f.WriteAt(p, off)
}

func TestNewOOCPlannerValidates(t *testing.T) {
	if _, err := NewOOCPlanner(0, 5, 8); !errors.Is(err, ErrShape) {
		t.Fatalf("bad shape: got %v", err)
	}
	if _, err := NewOOCPlanner(1000, 1000, 8, OOCOptions{Budget: 64}); !errors.Is(err, ErrOOCBudget) {
		t.Fatalf("tiny budget: got %v", err)
	}
	if _, err := NewOOCPlanner(8, 8, 8, OOCOptions{Resume: true}); !errors.Is(err, ErrOOCNoJournal) {
		t.Fatalf("resume sans journal: got %v", err)
	}
	p, err := NewOOCPlanner(64, 48, 8, OOCOptions{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.Budget() != 1<<20 {
		t.Fatalf("budget not retained: %d", p.Budget())
	}
}

func TestOOCMinBudget(t *testing.T) {
	got, err := OOCMinBudget(100, 300, 8)
	if err != nil || got != 2*300*8 {
		t.Fatalf("OOCMinBudget = %d, %v", got, err)
	}
	if _, err := OOCMinBudget(-1, 3, 8); !errors.Is(err, ErrShape) {
		t.Fatalf("bad shape: %v", err)
	}
}

func TestTuneOOCRecordsWisdom(t *testing.T) {
	ClearWisdom()
	defer ClearWisdom()
	const rows, cols, e = 32, 48, 8
	budget, err := OOCMinBudget(rows, cols, e)
	if err != nil {
		t.Fatal(err)
	}
	budget *= 8
	res, err := TuneOOC(rows, cols, e, budget, TuneConfig{Fast: true})
	if err != nil {
		t.Fatalf("TuneOOC: %v", err)
	}
	if res.Workers < 1 || res.SegmentBytes < 1 {
		t.Fatalf("implausible tuning result: %+v", res)
	}
	// A zero-valued planner for the same shape and budget class now picks
	// up the measured schedule.
	p, err := NewOOCPlanner(rows, cols, e, OOCOptions{Budget: budget, Tuning: WisdomRequired})
	if err != nil {
		t.Fatalf("wisdom not consulted: %v", err)
	}
	if p.cfg.Workers != res.Workers {
		t.Fatalf("planner ignored wisdom: cfg=%+v res=%+v", p.cfg, res)
	}
	if panel, _, err := ooc.Resolve(p.cfg); err != nil || p.cfg.SegmentBytes != 0 || panel != res.SegmentBytes {
		t.Fatalf("planner segment not derived: cfg=%+v panel=%d err=%v res=%+v", p.cfg, panel, err, res)
	}
	// Without wisdom, WisdomRequired fails.
	ClearWisdom()
	if _, err := NewOOCPlanner(rows, cols, e, OOCOptions{Budget: budget, Tuning: WisdomRequired}); !errors.Is(err, ErrNoWisdom) {
		t.Fatalf("want ErrNoWisdom, got %v", err)
	}
}

// TestOOCWisdomAppliesAcrossBudgetClass: wisdom is keyed by the budget's
// binary magnitude, so a decision tuned at one budget serves every budget
// in its class. Only its worker count carries over; the segment is
// derived from the exact budget, and a recorded segment size — such as
// the narrow one a pipelined engine's tuner saved — is ignored.
func TestOOCWisdomAppliesAcrossBudgetClass(t *testing.T) {
	ClearWisdom()
	defer ClearWisdom()
	const rows, cols, e, workers = 32, 48, 8, 2
	const tuned, used = 8192, 12000 // both in [2^13, 2^14)
	k := tune.OOCKey{Rows: rows, Cols: cols, ElemSize: e, BudgetLog2: tune.BudgetLog2(tuned)}
	storeOOCWisdom(k, tune.OOCDecision{SegmentBytes: tuned / 6, Depth: 3, Workers: workers})

	p, err := NewOOCPlanner(rows, cols, e, OOCOptions{Budget: used, Tuning: WisdomRequired})
	if err != nil {
		t.Fatalf("wisdom not found for budget %d: %v", used, err)
	}
	if p.cfg.Workers != workers || p.cfg.SegmentBytes != 0 {
		t.Fatalf("planner cfg %+v, want %d workers and a derived segment", p.cfg, workers)
	}
	panel, gotWorkers, err := ooc.Resolve(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPanel, _, _ := ooc.Resolve(ooc.Config{Rows: rows, Cols: cols, ElemSize: e, Budget: used, Workers: workers})
	if gotWorkers != workers || panel != wantPanel {
		t.Fatalf("resolved %d workers and a %d-byte panel, want %d and %d", gotWorkers, panel, workers, wantPanel)
	}
	if panel <= tuned/6 {
		t.Fatalf("panel %d bytes is no wider than the recorded segment", panel)
	}

	f, want := writeTempMatrix(t, rows, cols, e, 9)
	defer f.Close()
	if _, err := p.Transpose(f); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f, len(want)); !bytes.Equal(got, want) {
		t.Fatal("result differs from reference")
	}
}

func TestOOCWisdomRoundTripsThroughFile(t *testing.T) {
	ClearWisdom()
	defer ClearWisdom()
	const rows, cols, e = 16, 24, 8
	budget, _ := OOCMinBudget(rows, cols, e)
	budget *= 8
	if _, err := TuneOOC(rows, cols, e, budget, TuneConfig{Fast: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := SaveWisdom(path); err != nil {
		t.Fatal(err)
	}
	ClearWisdom()
	if err := LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOOCPlanner(rows, cols, e, OOCOptions{Budget: budget, Tuning: WisdomRequired}); err != nil {
		t.Fatalf("ooc wisdom lost in round trip: %v", err)
	}
}
