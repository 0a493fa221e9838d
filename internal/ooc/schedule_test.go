package ooc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"inplace/internal/mathutil"
)

// TestScheduleExhaustiveSmall round-trips every small shape in both
// directions under budgets from the floor up, with more workers than
// the tight budgets can hold lines for, and with derived, too-small and
// too-large SegmentBytes. The fused column shuffle makes two passes for
// coprime shapes and three otherwise, and the panel plus the clamped
// workers' lines always fit the budget.
func TestScheduleExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for rows := 2; rows <= 13; rows++ {
		for cols := 2; cols <= 13; cols++ {
			for _, e := range []int{1, 8} {
				floor, _ := minBudget(rows, cols, e)
				line := floor / 2
				budgets := []int64{floor, floor + line/2, floor + line, 3 * floor, 4 * int64(rows*cols*e)}
				wantPasses := 3
				if mathutil.GCD(rows, cols) == 1 {
					wantPasses = 2
				}
				for i, budget := range budgets {
					seg := []int64{0, 1, 1 << 40}[i%3]
					for _, dir := range []Dir{DirC2R, DirR2C} {
						name := fmt.Sprintf("%dx%dx%d/b%d/seg%d/dir%d", rows, cols, e, budget, seg, dir)
						in := randomMatrix(rng, rows, cols, e)
						data := &memBackend{b: append([]byte(nil), in...)}
						st, err := Run(data, Config{Rows: rows, Cols: cols, ElemSize: e, Budget: budget, SegmentBytes: seg, Dir: dir, Workers: 3})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !bytes.Equal(data.b, naiveTranspose(in, rows, cols, e)) {
							t.Fatalf("%s: result differs from reference", name)
						}
						if st.Passes != wantPasses {
							t.Fatalf("%s: %d passes, want %d", name, st.Passes, wantPasses)
						}
						if int64(st.PeakResidentBytes) > budget {
							t.Fatalf("%s: peak resident %d exceeds budget %d", name, st.PeakResidentBytes, budget)
						}
					}
				}
			}
		}
	}
}

// TestScheduleFloorLeavesOneWorker checks the budget arithmetic at the
// floor: one worker, one minimum-width panel and one line, whatever
// Workers asks for.
func TestScheduleFloorLeavesOneWorker(t *testing.T) {
	for _, sh := range []struct{ rows, cols int }{{40, 24}, {24, 40}, {7, 300}} {
		floor, _ := minBudget(sh.rows, sh.cols, 8)
		s, err := newSchedule(Config{Rows: sh.rows, Cols: sh.cols, ElemSize: 8, Budget: floor, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if s.workers != 1 {
			t.Errorf("%dx%d: %d workers at the floor, want 1", sh.rows, sh.cols, s.workers)
		}
		if got := s.unitBytes + int64(s.workers*s.lineBytes); got != floor {
			t.Errorf("%dx%d: resident %d at the floor, want %d", sh.rows, sh.cols, got, floor)
		}
	}
}

// crashBackend is a memory backend with a volatile write cache: writes
// are visible to reads at once but become durable only at Sync, and
// crash discards every write since the last Sync — the page-cache
// semantics of a file across a power loss.
type crashBackend struct {
	mu            sync.Mutex
	live, durable []byte
}

func newCrashBackend(b []byte) *crashBackend {
	return &crashBackend{live: append([]byte(nil), b...), durable: append([]byte(nil), b...)}
}

func (c *crashBackend) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off >= int64(len(c.live)) {
		return 0, io.EOF
	}
	n := copy(p, c.live[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (c *crashBackend) WriteAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(c.live)) {
		c.live = append(c.live, make([]byte, end-int64(len(c.live)))...)
	}
	return copy(c.live[off:], p), nil
}

func (c *crashBackend) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durable = append(c.durable[:0], c.live...)
	return nil
}

func (c *crashBackend) crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live = append(c.live[:0], c.durable...)
}

// commitKiller passes journal appends through until the journal has
// taken `after` commit records, then fails every later write: the
// process dies right after that commit.
type commitKiller struct {
	*crashBackend
	after, commits int
}

func (k *commitKiller) WriteAt(p []byte, off int64) (int, error) {
	if k.commits >= k.after {
		return 0, errInjected
	}
	if len(p) == FrameHeaderSize {
		if fr, ok := ParseFrame(p); ok && fr.Kind == recCommit {
			k.commits++
		}
	}
	return k.crashBackend.WriteAt(p, off)
}

// preCommitKiller passes journal writes through until the first commit
// record, then fails it and every later write: the process dies between
// a re-executed unit's data write and its commit.
type preCommitKiller struct {
	*crashBackend
	dead bool
}

func (k *preCommitKiller) WriteAt(p []byte, off int64) (int, error) {
	if !k.dead && len(p) == FrameHeaderSize {
		if fr, ok := ParseFrame(p); ok && fr.Kind == recCommit {
			k.dead = true
		}
	}
	if k.dead {
		return 0, errInjected
	}
	return k.crashBackend.WriteAt(p, off)
}

// TestResumeAfterPowerLoss crashes after each commit of every pass in
// turn, dropping every data and journal write since its last Sync.
// Commits are not preceded by a data sync, so a durable commit can sit
// over data that was lost; resume must re-checksum committed segments,
// roll back the stale ones and still converge to the exact transpose.
//
// Each crash point is then replayed with a second failure: the resume
// that rolled the commits back is itself killed after re-executing a
// unit but before committing it. The journal now holds an old commit
// and a newer intent for that unit, and its data matches the old commit
// sum; the newer intent must win, or the third run restores the undo
// image and then skips the unit. Crashes in non-final passes are
// required, where Verify's final-pass sums cannot catch the damage.
func TestResumeAfterPowerLoss(t *testing.T) {
	for _, sh := range []struct{ rows, cols int }{{12, 18}, {18, 12}, {7, 10}, {10, 7}} {
		const e = 8
		rng := rand.New(rand.NewSource(int64(sh.rows*100 + sh.cols)))
		in := randomMatrix(rng, sh.rows, sh.cols, e)
		want := naiveTranspose(in, sh.rows, sh.cols, e)
		floor, _ := minBudget(sh.rows, sh.cols, e)
		finalPass := 2
		if mathutil.GCD(sh.rows, sh.cols) == 1 {
			finalPass = 1
		}
		base := Config{Rows: sh.rows, Cols: sh.cols, ElemSize: e, Budget: floor + floor/2, Retries: 1}

		// powerLoss runs until the journal has taken `after` commits,
		// then drops everything not yet synced. done reports that the
		// run finished before the crash point.
		powerLoss := func(after int) (data, jrn *crashBackend, done bool) {
			data, jrn = newCrashBackend(in), newCrashBackend(nil)
			cfg := base
			cfg.Journal = &commitKiller{crashBackend: jrn, after: after}
			if _, err := Run(data, cfg); err == nil {
				return nil, nil, true
			}
			data.crash()
			jrn.crash()
			return data, jrn, false
		}
		resume := func(data, jrn *crashBackend, stage string, after int) Stats {
			t.Helper()
			cfg := base
			cfg.Journal, cfg.Resume, cfg.Verify = jrn, true, true
			st, err := Run(data, cfg)
			if err != nil {
				t.Fatalf("%dx%d crash after commit %d: %s: %v", sh.rows, sh.cols, after, stage, err)
			}
			if !bytes.Equal(data.live, want) {
				t.Fatalf("%dx%d crash after commit %d: %s: result differs from reference", sh.rows, sh.cols, after, stage)
			}
			return st
		}

		var sawRecheck, sawSecondKill bool
		for after := 1; ; after++ {
			data, jrn, done := powerLoss(after)
			if done {
				if after == 1 {
					t.Fatalf("%dx%d: the run never committed", sh.rows, sh.cols)
				}
				break // every commit of the run has been a crash point
			}
			st := resume(data, jrn, "resume", after)
			sawRecheck = sawRecheck || st.SegmentsRestored > 1

			data, jrn, _ = powerLoss(after)
			cfg := base
			cfg.Journal, cfg.Resume = &preCommitKiller{crashBackend: jrn}, true
			st, err := Run(data, cfg)
			if err == nil {
				if !bytes.Equal(data.live, want) {
					t.Fatalf("%dx%d crash after commit %d: resume: result differs from reference", sh.rows, sh.cols, after)
				}
				continue // nothing left to commit after the crash point
			}
			if st.SegmentsRestored > 0 && st.Passes < finalPass {
				sawSecondKill = true
			}
			resume(data, jrn, "second resume", after)
		}
		if !sawRecheck {
			t.Errorf("%dx%d: no resume ever rolled back a committed segment", sh.rows, sh.cols)
		}
		if !sawSecondKill {
			t.Errorf("%dx%d: no killed resume ever re-executed a rolled-back commit in a non-final pass", sh.rows, sh.cols)
		}
	}
}

// TestResumeRejectsV1Journal: a version-1 journal records the retired
// four-pass schedule; resuming from it must fail with the typed mismatch
// on the version field, never mis-resume.
func TestResumeRejectsV1Journal(t *testing.T) {
	const rows, cols, e = 16, 24, 8
	rng := rand.New(rand.NewSource(3))
	in := randomMatrix(rng, rows, cols, e)
	floor, _ := minBudget(rows, cols, e)
	cfg := Config{Rows: rows, Cols: cols, ElemSize: e, Budget: 2 * floor, Retries: 1}
	jrn := &memBackend{}
	cfg.Journal = jrn
	if _, err := Run(&faultBackend{memBackend: &memBackend{b: append([]byte(nil), in...)}, remaining: 40}, cfg); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("killed run: want ErrShortWrite, got %v", err)
	}

	// Rewrite the header as version 1 would have: version 1, four
	// passes, a valid header checksum.
	h := jrn.b[:headerSize]
	binary.LittleEndian.PutUint32(h[8:12], 1)
	flags := binary.LittleEndian.Uint64(h[32:40])
	binary.LittleEndian.PutUint64(h[32:40], flags&0xff|4<<8)
	binary.LittleEndian.PutUint64(h[56:64], crc64.Checksum(h[0:56], crcTab))

	cfg.Resume = true
	data := &memBackend{b: append([]byte(nil), in...)}
	_, err := Run(data, cfg)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("v1 journal resume: want ErrJournalMismatch, got %v", err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("v1 journal resume: error %q does not name the version field", err)
	}
	if !bytes.Equal(data.b, in) {
		t.Fatal("a rejected resume touched the data")
	}
}

// TestResumeWithOtherWorkers: the derived segment is what the workers'
// lines leave of the budget, so a resume under another worker count
// derives other panel widths. It must adopt the journal's widths (and
// clamp its workers to fit them) instead of refusing or shifting the
// unit boundaries.
func TestResumeWithOtherWorkers(t *testing.T) {
	const rows, cols, e = 24, 36, 8
	rng := rand.New(rand.NewSource(17))
	in := randomMatrix(rng, rows, cols, e)
	want := naiveTranspose(in, rows, cols, e)
	floor, _ := minBudget(rows, cols, e)
	for _, w := range [][2]int{{1, 3}, {3, 1}} {
		cfg := Config{Rows: rows, Cols: cols, ElemSize: e, Budget: 4 * floor, Retries: 1, Workers: w[0], Journal: &memBackend{}}
		data := &memBackend{b: append([]byte(nil), in...)}
		if _, err := Run(&faultBackend{memBackend: data, remaining: 3 * rows}, cfg); !errors.Is(err, ErrShortWrite) {
			t.Fatalf("workers %d then %d: killed run: want ErrShortWrite, got %v", w[0], w[1], err)
		}
		cfg.Workers, cfg.Resume, cfg.Verify = w[1], true, true
		st, err := Run(data, cfg)
		if err != nil {
			t.Fatalf("workers %d then %d: resume: %v", w[0], w[1], err)
		}
		if !bytes.Equal(data.b, want) {
			t.Fatalf("workers %d then %d: resumed result differs from reference", w[0], w[1])
		}
		if st.SegmentsSkipped == 0 {
			t.Fatalf("workers %d then %d: resume skipped nothing: %+v", w[0], w[1], st)
		}
		if int64(st.PeakResidentBytes) > cfg.Budget {
			t.Fatalf("workers %d then %d: peak resident %d exceeds budget %d", w[0], w[1], st.PeakResidentBytes, cfg.Budget)
		}
	}
}

// failingSync is a data backend whose Sync always fails.
type failingSync struct{ *memBackend }

func (failingSync) Sync() error { return errInjected }

// TestDataSyncFailureFailsRun: the pass barrier is only as durable as
// the data sync before it, so a failed sync must fail the run rather
// than record the pass as done; a resume then converges.
func TestDataSyncFailureFailsRun(t *testing.T) {
	const rows, cols, e = 12, 18, 8
	rng := rand.New(rand.NewSource(21))
	in := randomMatrix(rng, rows, cols, e)
	floor, _ := minBudget(rows, cols, e)
	data := &memBackend{b: append([]byte(nil), in...)}
	cfg := Config{Rows: rows, Cols: cols, ElemSize: e, Budget: 2 * floor, Journal: &memBackend{}}
	if _, err := Run(failingSync{data}, cfg); !errors.Is(err, errInjected) {
		t.Fatalf("want the sync failure, got %v", err)
	}
	cfg.Resume, cfg.Verify = true, true
	if _, err := Run(data, cfg); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(data.b, naiveTranspose(in, rows, cols, e)) {
		t.Fatal("resumed result differs from reference")
	}
}
