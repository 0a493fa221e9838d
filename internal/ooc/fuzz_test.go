package ooc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// FuzzOOCRoundTrip drives the whole engine — schedule derivation,
// panel loop, journal, kill and resume — over fuzzer-chosen shapes,
// element sizes, budgets and fault points, asserting bit-exactness
// against the out-of-place reference every time. A crash at an
// arbitrary write count followed by a resume must converge to the same
// bytes as an uninterrupted run.
func FuzzOOCRoundTrip(f *testing.F) {
	f.Add(uint16(4), uint16(6), uint8(8), uint8(0), int64(1), uint16(3), uint8(0))
	f.Add(uint16(7), uint16(5), uint8(1), uint8(3), int64(2), uint16(0), uint8(1))
	f.Add(uint16(16), uint16(16), uint8(3), uint8(9), int64(3), uint16(40), uint8(2))
	f.Add(uint16(1), uint16(33), uint8(8), uint8(1), int64(4), uint16(9), uint8(0))
	f.Add(uint16(63), uint16(2), uint8(2), uint8(255), int64(5), uint16(77), uint8(1))
	f.Fuzz(func(t *testing.T, rowsIn, colsIn uint16, elemIn, budgetSel uint8, seed int64, failAfter uint16, dirSel uint8) {
		rows := int(rowsIn%96) + 1
		cols := int(colsIn%96) + 1
		elem := int(elemIn%9) + 1
		dir := Dir(dirSel % 3)

		floor, ok := minBudget(rows, cols, elem)
		if !ok {
			t.Skip()
		}
		// Budgets from the exact floor up to comfortably in-core.
		budget := floor + int64(budgetSel)*floor/8

		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, rows*cols*elem)
		rng.Read(in)
		want := naiveTranspose(in, rows, cols, elem)

		cfg := Config{Rows: rows, Cols: cols, ElemSize: elem, Budget: budget, Dir: dir, Retries: 1}

		// Plain run, no journal.
		data := &memBackend{b: append([]byte(nil), in...)}
		st, err := Run(data, cfg)
		if err != nil {
			t.Fatalf("plain run: %v", err)
		}
		if !bytes.Equal(data.b, want) {
			t.Fatal("plain run differs from reference")
		}
		if int64(st.PeakResidentBytes) > budget {
			t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
		}

		// Journaled run killed after failAfter writes, then resumed.
		data = &memBackend{b: append([]byte(nil), in...)}
		cfg.Journal = &memBackend{}
		fb := &faultBackend{memBackend: data, remaining: int(failAfter)}
		if _, err := Run(fb, cfg); err == nil {
			// The quota outlasted the run: already complete and correct.
			if !bytes.Equal(data.b, want) {
				t.Fatal("uninterrupted journaled run differs from reference")
			}
			return
		} else if !errors.Is(err, ErrShortWrite) {
			t.Fatalf("killed run: want ErrShortWrite, got %v", err)
		}
		cfg.Resume = true
		cfg.Verify = true
		if _, err := Run(data, cfg); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if !bytes.Equal(data.b, want) {
			t.Fatal("resumed run differs from reference")
		}
	})
}
