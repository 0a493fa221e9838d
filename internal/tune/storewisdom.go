package tune

import (
	"cmp"
	"fmt"
)

// Tile-store wisdom: measured decisions for the columnar store's ingest
// knobs (chunk rows, transform workers). These live in the same wisdom
// file as the transpose decisions, under a separate "store" section,
// because the identity differs once more: a store decision is keyed by
// the record schema — field count and element width — plus the row
// count's binary magnitude. The best chunk height for a 16-field
// 4-byte-element schema transfers across datasets of similar size
// regardless of their exact row counts, so rows enter as floor(log2)
// just as the out-of-core budget does.

// StoreKey identifies one tile-store tuning problem.
type StoreKey struct {
	Fields   int `json:"fields"`
	ElemSize int `json:"elem_size"`
	RowsLog2 int `json:"rows_log2"`
}

func (k StoreKey) String() string {
	return fmt.Sprintf("%df/%dB/2^%drows", k.Fields, k.ElemSize, k.RowsLog2)
}

func (k StoreKey) validate() error {
	if k.Fields <= 0 || k.ElemSize <= 0 || k.RowsLog2 < 0 || k.RowsLog2 > 62 {
		return &FormatError{Reason: fmt.Sprintf("invalid store key %v", k)}
	}
	return nil
}

func (k StoreKey) compare(o StoreKey) int {
	return cmp.Or(cmp.Compare(k.Fields, o.Fields), cmp.Compare(k.ElemSize, o.ElemSize),
		cmp.Compare(k.RowsLog2, o.RowsLog2))
}

// StoreDecision is a measured-optimal ingest configuration for one
// StoreKey.
type StoreDecision struct {
	ChunkRows int     `json:"chunk_rows"`
	Workers   int     `json:"workers"`
	GBps      float64 `json:"gbps,omitempty"` // winning ingest throughput, for provenance
}

func (d StoreDecision) validate() error {
	if d.ChunkRows <= 0 || d.Workers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid store decision %+v", d)}
	}
	return nil
}
