package tune

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"inplace/internal/core"
)

// WisdomVersion is the on-disk format version. Readers skip files with a
// different version (measurement semantics may have changed between
// versions, so stale decisions are worth less than re-tuning) instead of
// failing, so mixed-version deployments degrade to the static heuristic
// rather than erroring.
const WisdomVersion = 1

// ErrCorrupt is the sentinel wrapped by every wisdom decoding failure;
// errors.Is(err, ErrCorrupt) distinguishes a damaged file from I/O
// errors.
var ErrCorrupt = errors.New("tune: corrupt wisdom")

// FormatError is the typed error returned for syntactically or
// semantically invalid wisdom input. It wraps ErrCorrupt.
type FormatError struct {
	Reason string
	Err    error // underlying decode error, may be nil
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("tune: corrupt wisdom: %s: %v", e.Reason, e.Err)
	}
	return "tune: corrupt wisdom: " + e.Reason
}

func (e *FormatError) Unwrap() error { return ErrCorrupt }

// Key identifies one tuning problem, mirroring the planner cache key:
// the (order-normalized) shape, the element size in bytes, and the
// worker budget the tuner was allowed to spend. Decisions measured under
// one budget do not transfer to another (the worker sweep saturates
// differently), so the budget is part of the identity.
type Key struct {
	Rows       int `json:"rows"`
	Cols       int `json:"cols"`
	ElemSize   int `json:"elem_size"`
	MaxWorkers int `json:"max_workers"`
}

func (k Key) String() string {
	return fmt.Sprintf("%dx%d/%dB/w%d", k.Rows, k.Cols, k.ElemSize, k.MaxWorkers)
}

func (k Key) validate() error {
	if k.Rows <= 0 || k.Cols <= 0 || k.ElemSize <= 0 || k.MaxWorkers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid key %v", k)}
	}
	return nil
}

func (k Key) compare(o Key) int {
	return cmp.Or(cmp.Compare(k.Rows, o.Rows), cmp.Compare(k.Cols, o.Cols),
		cmp.Compare(k.ElemSize, o.ElemSize), cmp.Compare(k.MaxWorkers, o.MaxWorkers))
}

// Decision is a measured-optimal execution strategy for one Key: which
// pass structure to run, in which direction, with how many workers and
// what panel width. Any positive width is correct, so files recorded
// when block_w meant the older sub-row width still load and run. GBps
// records the winning measurement for provenance and for staleness
// checks by consumers.
type Decision struct {
	Variant string  `json:"variant"`           // core.Variant.String() name
	C2R     bool    `json:"c2r"`               // true: C2R pipeline, false: R2C
	Workers int     `json:"workers"`           // measured-best worker count
	BlockW  int     `json:"block_w,omitempty"` // cache-aware panel width in elements, 0 = engine default
	GBps    float64 `json:"gbps,omitempty"`    // throughput of the winning candidate
}

// CoreVariant resolves the serialized variant name.
func (d Decision) CoreVariant() (core.Variant, bool) { return core.ParseVariant(d.Variant) }

func (d Decision) validate() error {
	if _, ok := d.CoreVariant(); !ok {
		return &FormatError{Reason: fmt.Sprintf("unknown variant %q", d.Variant)}
	}
	if d.Workers <= 0 || d.BlockW < 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid decision %+v", d)}
	}
	return nil
}

// Table is a wisdom table: the accumulated measured decisions of an
// autotuning run (or several, merged), one Section per planner. The
// zero value is an empty table. A Table is not safe for concurrent
// mutation; callers that share one across goroutines (the process
// wisdom table of the public API) serialize access themselves.
type Table struct {
	Transpose Section[Key, Decision]           // in-memory 2D transposes, file key "entries"
	OOC       Section[OOCKey, OOCDecision]     // out-of-core runs, "ooc"
	Perm      Section[PermKey, PermDecision]   // axis permutations, "perm"
	TileStore Section[StoreKey, StoreDecision] // tile-store ingest, "store"
}

// NewTable returns an empty wisdom table.
func NewTable() *Table { return &Table{} }

// sections lists t's sections in file order (wisdomFile.sections).
func (t *Table) sections() [4]section {
	return [4]section{&t.Transpose, &t.OOC, &t.Perm, &t.TileStore}
}

// Lookup, Store and Len reach the 2D section; StoreOOC, StorePerm,
// LookupPerm, PermLen and StoreStore the others.
func (t *Table) Lookup(k Key) (Decision, bool)             { return t.Transpose.Lookup(k) }
func (t *Table) Store(k Key, d Decision)                   { t.Transpose.Store(k, d) }
func (t *Table) Len() int                                  { return t.Transpose.Len() }
func (t *Table) StoreOOC(k OOCKey, d OOCDecision)          { t.OOC.Store(k, d) }
func (t *Table) StorePerm(k PermKey, d PermDecision)       { t.Perm.Store(k, d) }
func (t *Table) LookupPerm(k PermKey) (PermDecision, bool) { return t.Perm.Lookup(k) }
func (t *Table) PermLen() int                              { return t.Perm.Len() }
func (t *Table) StoreStore(k StoreKey, d StoreDecision)    { t.TileStore.Store(k, d) }

// Entries returns the number of decisions in every section together.
func (t *Table) Entries() int {
	n := 0
	for _, s := range t.sections() {
		n += s.Len()
	}
	return n
}

// Merge copies every entry of other into t, overwriting collisions:
// the incoming table is assumed fresher (cmd/xposetune merges new
// measurements over an existing file this way).
func (t *Table) Merge(other *Table) {
	from := other.sections()
	for i, s := range t.sections() {
		s.merge(from[i])
	}
}

// Clone returns a deep copy of t.
func (t *Table) Clone() *Table {
	c := NewTable()
	c.Merge(t)
	return c
}

// Equal reports whether two tables hold identical entries.
func (t *Table) Equal(other *Table) bool {
	to := other.sections()
	for i, s := range t.sections() {
		if !s.equal(to[i]) {
			return false
		}
	}
	return true
}

// wisdomFile is the on-disk envelope: the version and one array of
// entries per section. Each entry is one object holding the key's
// fields followed by the decision's. The 2D section is always written
// (null when empty, as files have always had it); the others only when
// they hold entries.
type wisdomFile struct {
	Version int             `json:"version"`
	Entries json.RawMessage `json:"entries"`
	OOC     json.RawMessage `json:"ooc,omitempty"`
	Perm    json.RawMessage `json:"perm,omitempty"`
	Store   json.RawMessage `json:"store,omitempty"`
}

// sections lists f's section members in the order of Table.sections.
func (f *wisdomFile) sections() [4]*json.RawMessage {
	return [4]*json.RawMessage{&f.Entries, &f.OOC, &f.Perm, &f.Store}
}

// Save writes the table to w as versioned JSON with entries in
// deterministic key order, so identical tables serialize identically
// (the round-trip property the fuzz harness asserts).
func (t *Table) Save(w io.Writer) error {
	f := wisdomFile{Version: WisdomVersion}
	raws := f.sections()
	for i, s := range t.sections() {
		var err error
		if *raws[i], err = s.encode(); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Load reads a wisdom table from r.
//
//   - Syntactically or semantically invalid input (bad JSON, impossible
//     shapes, unknown variants) is rejected with a *FormatError wrapping
//     ErrCorrupt.
//   - A well-formed file with an unknown version is skipped, not fatal:
//     Load returns an empty table and nil error, so old processes reading
//     new wisdom (or vice versa) fall back to the static heuristic.
func Load(r io.Reader) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Probe the version tolerantly first: a future version may carry
	// fields this reader has never heard of, and that must read as
	// "skip", not "corrupt".
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, &FormatError{Reason: "decoding", Err: err}
	}
	if probe.Version == nil {
		return nil, &FormatError{Reason: "missing version"}
	}
	if *probe.Version != WisdomVersion {
		return NewTable(), nil
	}
	var f wisdomFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, &FormatError{Reason: "decoding", Err: err}
	}
	t := NewTable()
	raws := f.sections()
	for i, s := range t.sections() {
		if err := s.decode(*raws[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}
