package tune

import (
	"cmp"
	"fmt"

	"inplace/internal/tensor"
)

// Axis-permutation wisdom: measured decisions for the rank-generic
// PermuteAxes planner. These live in the same wisdom file as the 2D and
// out-of-core decisions, under a separate "perm" section, because the
// identity differs again: a permutation decision is keyed by the
// canonical (shape, perm) pair — the normal form after stripping unit
// axes and collapsing fused runs — so every raw rank-k problem that
// reduces to the same batched passes shares one entry.

// PermKey identifies one axis-permutation tuning problem. Dims and Perm
// are the canonical forms rendered by tensor.Shape.String ("8x1024x16")
// and tensor.Perm.String ("0,2,1"); string form keeps the key comparable
// and JSON-friendly across ranks.
type PermKey struct {
	Dims       string `json:"dims"`
	Perm       string `json:"perm"`
	ElemSize   int    `json:"elem_size"`
	MaxWorkers int    `json:"max_workers"`
}

func (k PermKey) String() string {
	return fmt.Sprintf("%s/%s/%dB/w%d", k.Dims, k.Perm, k.ElemSize, k.MaxWorkers)
}

func (k PermKey) validate() error {
	s, err := tensor.ParseShape(k.Dims)
	if err != nil {
		return &FormatError{Reason: fmt.Sprintf("invalid perm key %v", k), Err: err}
	}
	if _, err := tensor.ParsePerm(k.Perm, len(s)); err != nil {
		return &FormatError{Reason: fmt.Sprintf("invalid perm key %v", k), Err: err}
	}
	if k.ElemSize <= 0 || k.MaxWorkers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid perm key %v", k)}
	}
	return nil
}

func (k PermKey) compare(o PermKey) int {
	return cmp.Or(cmp.Compare(k.Dims, o.Dims), cmp.Compare(k.Perm, o.Perm),
		cmp.Compare(k.ElemSize, o.ElemSize), cmp.Compare(k.MaxWorkers, o.MaxWorkers))
}

// PermDecision is a measured-optimal strategy for one PermKey: which
// factorization (or the cycle fallback) to run and with how many
// workers. GBps records the winning measurement for provenance.
type PermDecision struct {
	Strategy string  `json:"strategy"` // tensor.Strategy* name
	Workers  int     `json:"workers"`
	GBps     float64 `json:"gbps,omitempty"`
}

func (d PermDecision) validate() error {
	if !tensor.ValidStrategy(d.Strategy) {
		return &FormatError{Reason: fmt.Sprintf("unknown perm strategy %q", d.Strategy)}
	}
	if d.Workers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid perm decision %+v", d)}
	}
	return nil
}
