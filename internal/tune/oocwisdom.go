package tune

import (
	"cmp"
	"fmt"
)

// Out-of-core wisdom: measured decisions for the ooc engine's transform
// worker count. These live in the same wisdom file as the in-memory
// decisions, under a separate "ooc" section, because the identities
// differ: an out-of-core decision is keyed by the memory budget class in
// addition to the shape — the best worker count under a 64 MiB budget
// says nothing about the best one under 1 GiB. The engine derives the
// segment from the exact budget and the workers, so a decision applies
// to every budget in its class.

// OOCKey identifies one out-of-core tuning problem. The budget enters as
// its binary order of magnitude (floor(log2(bytes))): decisions within a
// factor of two of budget transfer well, finer bucketing just fragments
// the table.
type OOCKey struct {
	Rows       int `json:"rows"`
	Cols       int `json:"cols"`
	ElemSize   int `json:"elem_size"`
	BudgetLog2 int `json:"budget_log2"`
}

func (k OOCKey) String() string {
	return fmt.Sprintf("%dx%d/%dB/2^%dB", k.Rows, k.Cols, k.ElemSize, k.BudgetLog2)
}

// BudgetLog2 buckets a byte budget for OOCKey: the position of its
// highest set bit (so 64 MiB -> 26, and anything in [64 MiB, 128 MiB)
// shares a bucket).
func BudgetLog2(budget int64) int {
	l := 0
	for budget > 1 {
		budget >>= 1
		l++
	}
	return l
}

func (k OOCKey) validate() error {
	if k.Rows <= 0 || k.Cols <= 0 || k.ElemSize <= 0 || k.BudgetLog2 < 1 || k.BudgetLog2 > 62 {
		return &FormatError{Reason: fmt.Sprintf("invalid ooc key %v", k)}
	}
	return nil
}

func (k OOCKey) compare(o OOCKey) int {
	return cmp.Or(cmp.Compare(k.Rows, o.Rows), cmp.Compare(k.Cols, o.Cols),
		cmp.Compare(k.ElemSize, o.ElemSize), cmp.Compare(k.BudgetLog2, o.BudgetLog2))
}

// OOCDecision is a measured-optimal out-of-core schedule for one OOCKey.
type OOCDecision struct {
	// SegmentBytes is the winner's panel size, kept for provenance and
	// so the file shape stays valid; readers ignore it, because the
	// segment is derived from the exact budget, not its class.
	SegmentBytes int64 `json:"segment_bytes"`
	// Depth is the retired pipeline depth. The engine no longer has a
	// pipeline and readers ignore the field; the tuner writes 1 so files
	// it saves stay loadable by versions that still require it.
	Depth   int     `json:"depth"`
	Workers int     `json:"workers"`
	GBps    float64 `json:"gbps,omitempty"` // winning throughput, for provenance
}

func (d OOCDecision) validate() error {
	if d.SegmentBytes <= 0 || d.Workers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid ooc decision %+v", d)}
	}
	return nil
}
