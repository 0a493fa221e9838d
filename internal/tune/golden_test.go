package tune

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the wisdom golden file and its fuzz seed")

const goldenPath = "testdata/golden_wisdom.json"

// goldenSeedPath is the golden file as a FuzzWisdomRoundTrip seed, so
// the fuzzer starts from a record of every section.
var goldenSeedPath = filepath.Join("testdata", "fuzz", "FuzzWisdomRoundTrip", "golden_wisdom")

// goldenTable holds two entries in each of the four sections, in
// insertion orders that differ from the sorted file order, with both
// present and omitted optional fields.
func goldenTable() *Table {
	t := NewTable()
	t.Store(Key{Rows: 4096, Cols: 3000, ElemSize: 8, MaxWorkers: 2},
		Decision{Variant: "cache-aware", C2R: false, Workers: 2, BlockW: 64, GBps: 1.75})
	t.Store(Key{Rows: 1000000, Cols: 4, ElemSize: 4, MaxWorkers: 1},
		Decision{Variant: "skinny", C2R: true, Workers: 1})
	t.StoreOOC(OOCKey{Rows: 16384, Cols: 16384, ElemSize: 8, BudgetLog2: 26},
		OOCDecision{SegmentBytes: 4194304, Depth: 1, Workers: 2, GBps: 0.5})
	t.StoreOOC(OOCKey{Rows: 12000, Cols: 8, ElemSize: 8, BudgetLog2: 20},
		OOCDecision{SegmentBytes: 65536, Depth: 1, Workers: 1})
	t.StorePerm(PermKey{Dims: "8x1024x16", Perm: "0,2,1", ElemSize: 4, MaxWorkers: 2},
		PermDecision{Strategy: "greedy", Workers: 2, GBps: 3.125})
	t.StorePerm(PermKey{Dims: "2x36x4", Perm: "0,2,1", ElemSize: 8, MaxWorkers: 1},
		PermDecision{Strategy: "cycle", Workers: 1})
	t.StoreStore(StoreKey{Fields: 16, ElemSize: 4, RowsLog2: 20},
		StoreDecision{ChunkRows: 65536, Workers: 2, GBps: 0.45})
	t.StoreStore(StoreKey{Fields: 3, ElemSize: 8, RowsLog2: 6},
		StoreDecision{ChunkRows: 64, Workers: 1})
	return t
}

// TestWisdomGolden pins the wisdom file format: Save of a table with
// entries in every section reproduces the committed file byte for
// byte, and the file survives Load→Save unchanged.
func TestWisdomGolden(t *testing.T) {
	var saved bytes.Buffer
	if err := goldenTable().Save(&saved); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		seed := "go test fuzz v1\n[]byte(" + strconv.Quote(saved.String()) + ")\n"
		if err := os.WriteFile(goldenPath, saved.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSeedPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSeedPath, []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), golden) {
		t.Fatalf("Save does not reproduce %s:\ngot:\n%s\nwant:\n%s", goldenPath, saved.Bytes(), golden)
	}

	loaded, err := Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("Load(%s): %v", goldenPath, err)
	}
	if !loaded.Equal(goldenTable()) {
		t.Fatalf("Load(%s) does not equal the table that wrote it", goldenPath)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatalf("Load→Save changed %s:\n%s", goldenPath, again.Bytes())
	}
}

// TestWisdomGoldenSeed checks that the fuzz seed encodes the golden file
// exactly, so the two cannot drift apart.
func TestWisdomGoldenSeed(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(goldenSeedPath)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(string(raw), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		t.Fatalf("%s is not a one-value []byte fuzz corpus file", goldenSeedPath)
	}
	seed, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", goldenSeedPath, err)
	}
	if seed != string(golden) {
		t.Fatalf("%s does not encode %s; rerun with -update", goldenSeedPath, goldenPath)
	}
}
