package ooc

import (
	"errors"
	"fmt"
)

// The typed I/O error taxonomy of the out-of-core engine. Every failure
// surfaced by Run wraps exactly one of these sentinels, so callers
// branch with errors.Is instead of string matching, and the cold-path
// constructor helpers keep the fmt machinery out of the annotated hot
// loops (the same pattern as the root package's shapeErr/overflowErr).

// ErrShortRead reports a backend ReadAt that returned fewer bytes than
// requested (with or without its own error) after the configured
// retries were exhausted.
var ErrShortRead = errors.New("ooc: short read")

// ErrShortWrite reports a backend WriteAt that accepted fewer bytes
// than requested after the configured retries were exhausted.
var ErrShortWrite = errors.New("ooc: short write")

// ErrCorruptSegment reports a segment whose bytes do not match the
// checksum the journal recorded at commit time: the storage below the
// backend returned different data than was durably written.
var ErrCorruptSegment = errors.New("ooc: corrupt segment")

// ErrBudget reports a memory budget below the decomposition's floor:
// every pass needs one panel of minimum width (a full row or column)
// and one scratch line of max(rows,cols) elements resident, so the
// budget must cover 2*max(rows,cols) elements.
var ErrBudget = errors.New("ooc: memory budget below 2*max(rows,cols) elements")

// ErrJournalMismatch reports a resume journal whose recorded geometry
// (shape, element size, direction or segment schedule) does not match
// the requested run; resuming with it would corrupt the matrix.
var ErrJournalMismatch = errors.New("ooc: journal does not match this run")

// ErrJournalCorrupt reports a journal whose header fails validation.
// Torn or corrupt trailing records are not an error — they are the
// expected shape of a crash and are discarded — but a damaged header
// means the journal cannot be trusted at all.
var ErrJournalCorrupt = errors.New("ooc: corrupt journal")

// ErrNoJournal reports a resume requested without a journal to resume
// from.
var ErrNoJournal = errors.New("ooc: resume requires a journal")

// --- Cold-path error constructors ---

// shortReadErr wraps ErrShortRead with the failing span.
func shortReadErr(off int64, want, got int, cause error) error {
	if cause != nil {
		return fmt.Errorf("%w: %d of %d bytes at offset %d: %v", ErrShortRead, got, want, off, cause)
	}
	return fmt.Errorf("%w: %d of %d bytes at offset %d", ErrShortRead, got, want, off)
}

// shortWriteErr wraps ErrShortWrite with the failing span.
func shortWriteErr(off int64, want, got int, cause error) error {
	if cause != nil {
		return fmt.Errorf("%w: %d of %d bytes at offset %d: %v", ErrShortWrite, got, want, off, cause)
	}
	return fmt.Errorf("%w: %d of %d bytes at offset %d", ErrShortWrite, got, want, off)
}

// corruptSegmentErr wraps ErrCorruptSegment with the failing unit.
func corruptSegmentErr(pass, unit int, want, got uint64) error {
	return fmt.Errorf("%w: pass %d unit %d checksum %016x, journal recorded %016x", ErrCorruptSegment, pass, unit, got, want)
}

// budgetErr wraps ErrBudget with the shortfall.
func budgetErr(budget, floor int64) error {
	return fmt.Errorf("%w (budget %d bytes, floor %d bytes)", ErrBudget, budget, floor)
}

// ErrShape reports a non-positive dimension or element size.
var ErrShape = errors.New("ooc: invalid shape")

// ErrOverflow reports a shape whose byte size does not fit in int.
var ErrOverflow = errors.New("ooc: matrix byte size overflows int")

// shapeErr wraps ErrShape with the offending shape.
func shapeErr(rows, cols, elem int) error {
	return fmt.Errorf("%w: rows=%d cols=%d elemSize=%d (all must be positive)", ErrShape, rows, cols, elem)
}

// overflowErr wraps ErrOverflow with the offending shape.
func overflowErr(rows, cols int) error {
	return fmt.Errorf("%w: rows=%d cols=%d", ErrOverflow, rows, cols)
}

// mismatchErr wraps ErrJournalMismatch with the differing field.
func mismatchErr(field string, journal, run int64) error {
	return fmt.Errorf("%w: %s is %d in the journal, %d in the run", ErrJournalMismatch, field, journal, run)
}
