package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Summaries of recorded runs (repeat.sh writes them): per workload and
// metric the median, quartiles and their spread as a share of the
// median, next to the metric's bound from BENCHMARK.json; and, for two
// sets of runs, how far the second set's median moved from the first's.

// spec is the part of BENCHMARK.json the summary needs.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// recordedRun is one line of a runs file.
type recordedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	} `json:"result"`
}

func readRuns(path string) ([]recordedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []recordedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r recordedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// metricStats is one metric's summary over a set of runs.
type metricStats struct {
	n              int
	median, q1, q3 float64
}

func (m metricStats) spread() float64 { return ratio(m.q3-m.q1, m.median) }

func statsOf(runs []recordedRun, name string) metricStats {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	q1, q2, q3 := quartiles(xs)
	return metricStats{n: len(xs), median: q2, q1: q1, q3: q3}
}

// spreadFlag marks a spread above its bound (OVER) and one above the
// third of it that a steady benchmark stays under (high).
func spreadFlag(spreadOverBound float64) string {
	switch {
	case spreadOverBound > 1:
		return "OVER"
	case spreadOverBound > 1.0/3:
		return "high"
	}
	return ""
}

// summarizeSets writes a markdown summary of the runs recorded in each
// directory (files <workload>.jsonl) to w.
func summarizeSets(w io.Writer, specPath string, dirs []string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return err
	}
	sets := make([]map[string][]recordedRun, len(dirs))
	for i, d := range dirs {
		sets[i] = map[string][]recordedRun{}
		for _, wl := range sp.Workloads {
			runs, err := readRuns(filepath.Join(d, wl.Name+".jsonl"))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return err
			}
			sets[i][wl.Name] = runs
		}
	}
	for i, d := range dirs {
		fmt.Fprintf(w, "## %s\n\n", d)
		for _, wl := range sp.Workloads {
			runs := sets[i][wl.Name]
			if len(runs) == 0 {
				continue
			}
			seeds := map[int64]bool{}
			allOK := true
			for _, r := range runs {
				seeds[r.Seed] = true
				allOK = allOK && r.Result.Correct && r.Result.Failed == 0
			}
			fmt.Fprintf(w, "### %s: %d runs, %d distinct seeds, all correct and none failed: %v\n\n", wl.Name, len(runs), len(seeds), allOK)
			fmt.Fprintln(w, "| metric | unit | n | median | q1 | q3 | spread | bound | spread/bound | flag |")
			fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
			for _, m := range sp.EndToEnd {
				st := statsOf(runs, m.Name)
				if st.n == 0 {
					continue
				}
				sb := st.spread() / m.Bound
				fmt.Fprintf(w, "| %s | %s | %d | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f | %s |\n", m.Name, m.Unit, st.n, st.median, st.q1, st.q3, st.spread(), m.Bound, sb, spreadFlag(sb))
			}
			for _, m := range sp.PerLayer {
				st := statsOf(runs, m.Name)
				if st.n == 0 {
					continue
				}
				fmt.Fprintf(w, "| %s | %s | %d | %.6g | %.6g | %.6g | %.4f | - | - | |\n", m.Name, m.Unit, st.n, st.median, st.q1, st.q3, st.spread())
			}
			fmt.Fprintln(w)
		}
	}
	if len(dirs) < 2 {
		return nil
	}
	fmt.Fprintf(w, "## %s against %s\n\n", dirs[1], dirs[0])
	fmt.Fprintln(w, "Worse is the second set's median relative to the first's, in the metric's bad direction; it must not exceed the bound.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | median 1 | median 2 | worse | bound | ok |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, wl := range sp.Workloads {
		a, b := sets[0][wl.Name], sets[1][wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			m1, m2 := statsOf(a, m.Name).median, statsOf(b, m.Name).median
			worse := ratio(m2-m1, m1)
			if m.Better == "higher" {
				worse = ratio(m1-m2, m1)
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %+.4f | %.2f | %v |\n", wl.Name, m.Name, m1, m2, worse, m.Bound, worse <= m.Bound)
		}
	}
	return nil
}
