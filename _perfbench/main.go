// Command perfbench is the repository benchmark: four workloads that
// drive the library, the daemon, the tile store and the out-of-core
// engine end to end, check every output against a seeded oracle, and
// print the end-to-end metrics (or, traced, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
// Run it through run.sh from the repository root, which builds it from
// the checkout's sources:
//
//	bash _perfbench/run.sh --workload inmem --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// run describes one workload execution.
type run struct {
	seed    uint64
	seconds float64
	probe   bool    // reduced sizes: fills per-layer values of bypassed layers
	tr      *tracer // nil when untraced
	work    string  // scratch directory inside the checkout
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	wrong             int // failed operations whose output was wrong
	e2e               map[string]float64
	layer             map[string]float64
	lines             []string // report lines, printed before the JSON
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// note adds a report line.
func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed: it returned
// an error, or its output was wrong. Any failed operation fails the run.
func (r *result) op(err error, ok bool) {
	r.attempted++
	if err != nil || !ok {
		r.failed++
	}
	if err == nil && !ok {
		r.wrong++
	}
}

// passed reports whether the run made operations and none failed.
func (r *result) passed() bool { return r.attempted > 0 && r.failed == 0 }

// setupReps is how many times each workload sets up; setup_s is the
// median. inmem, whose set-up fills 1.4 GiB, sets up fewer times.
const (
	setupReps      = 21
	inmemSetupReps = 7
)

// setupNote describes the set-up times behind setup_s.
func setupNote(setups []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range setups {
		lo, hi = min(lo, s), max(hi, s)
	}
	return fmt.Sprintf("median of %d set-ups; fastest %.4f s, slowest %.4f s", len(setups), lo, hi)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports untraced;
// README.md gives each workload's definition of them.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"gbps", "GB/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []metricDef{
	{"roofline.copy_gbps", "GB/s"},
	{"core.large_gbps", "GB/s"},
	{"core.coprime_gbps", "GB/s"},
	{"core.noncoprime_gbps", "GB/s"},
	{"core.skinny_gbps", "GB/s"},
	{"core.roofline_frac", "ratio"},
	{"core.allocs_per_op", "count"},
	{"core.bytes_moved_computed", "bytes"},
	{"parallel.scaling_2w", "ratio"},
	{"tensor.nhwc_gbps", "GB/s"},
	{"tensor.allocs_per_op", "count"},
	{"tensor.passes", "count"},
	{"planner.batch_gbps", "GB/s"},
	{"planner.batch_allocs_per_op", "count"},
	{"planner.cache_hit_ratio", "ratio"},
	{"planner.cache_evictions", "count"},
	{"planner.first_exec_over_warm", "ratio"},
	{"server.upload_p50_ms", "ms"},
	{"server.compute_p50_ms", "ms"},
	{"server.compute_p99_ms", "ms"},
	{"server.download_p50_ms", "ms"},
	{"server.small_p50_ms", "ms"},
	{"server.medium_p50_ms", "ms"},
	{"server.coalesce_jobs_per_batch", "ratio"},
	{"server.shed_frac", "ratio"},
	{"server.inflight_peak_mib", "MiB"},
	{"server.queue_depth_peak", "count"},
	{"gen.lateness_p99_ms", "ms"},
	{"tilestore.cache_hit_ratio", "ratio"},
	{"tilestore.backend_bytes_per_byte", "ratio"},
	{"tilestore.read_ops_per_read", "count"},
	{"tilestore.hit_p50_ms", "ms"},
	{"tilestore.miss_p50_ms", "ms"},
	{"tilestore.scan_gbps", "GB/s"},
	{"tilestore.write_amp", "ratio"},
	{"tilestore.write_ops", "count"},
	{"tilestore.seal_s", "s"},
	{"tilestore.verify_gbps", "GB/s"},
	{"ooc.backend_ops", "count"},
	{"ooc.bytes_per_op", "bytes"},
	{"ooc.io_amp", "ratio"},
	{"ooc.journal_bytes_per_byte", "ratio"},
	{"ooc.prefetch_hit_ratio", "ratio"},
	{"ooc.peak_resident_frac", "ratio"},
	{"ooc.allocs_per_run", "count"},
	{"ooc.read_busy_s", "s"},
	{"ooc.write_busy_s", "s"},
	{"ooc.journal_busy_s", "s"},
	{"ooc.sync_busy_s", "s"},
	{"ooc.other_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) (*result, error){
	"inmem": runInmem,
	"serve": runServe,
	"store": runStore,
	"ooc":   runOOC,
}

// workloadOrder fixes the order probes run in.
var workloadOrder = []string{"inmem", "serve", "store", "ooc"}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload: inmem, serve, store or ooc")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	summarize := flag.String("summarize", "", "print a summary of recorded run sets (comma-separated directories) and exit")
	flag.Parse()

	if *summarize != "" {
		if err := summarizeSets(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), strings.Split(*summarize, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadOrder, ", "))
		return 2
	}
	printEnv(*workload, *seed, *seconds, *trace == 1)

	base := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := &run{seed: uint64(*seed), seconds: float64(*seconds), work: work}
	if *trace == 1 {
		r.tr = newTracer()
	}
	res, err := fn(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, ok := res.e2e["peak_rss_mib"]; !ok {
		res.e2e["peak_rss_mib"] = float64(peakRSS()) / (1 << 20)
	}

	metrics := map[string]any{}
	if r.tr != nil {
		if err := fillFromProbes(*workload, r, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		spans := r.tr.snapshot()
		for _, t := range spanTotals(spans) {
			res.note("span %-22s n=%-8d total=%.4fs self=%.4fs", t.Name, t.Count, float64(t.Total)/1e9, float64(t.Own)/1e9)
		}
		name := filepath.Join("trace", fmt.Sprintf("%s-seed%d.tsv", *workload, *seed))
		if err := writeSpans(filepath.Join(base, name), spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			res.note("spans written to .bench_build/%s (%d spans)", name, len(spans))
		}
		err = collect(metrics, layerMetrics, res.layer)
	} else {
		err = collect(metrics, e2eMetrics, res.e2e)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	fmt.Printf("ops attempted=%d failed=%d wrong=%d failed_frac=%.6f\n", res.attempted, res.failed, res.wrong, ratio(float64(res.failed), float64(res.attempted)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.passed(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.passed() {
		return 1
	}
	return 0
}

// collect copies every defined metric from vals into the JSON shape,
// failing when one is missing or not a finite number.
func collect(dst map[string]any, defs []metricDef, vals map[string]float64) error {
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		dst[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return errors.New("metrics missing or not finite: " + strings.Join(missing, ", "))
	}
	return nil
}

// fillFromProbes gives the per-layer metrics of layers the traced
// workload bypasses a value: each other workload runs once at probe
// size, traced, and contributes the metrics the main run lacks. Probe
// values describe the layer at probe size, not the main workload.
func fillFromProbes(main string, r *run, res *result) error {
	for _, name := range workloadOrder {
		if name == main {
			continue
		}
		need := false
		for _, d := range layerMetrics {
			if _, ok := res.layer[d.name]; !ok {
				need = true
				break
			}
		}
		if !need {
			return nil
		}
		p := &run{seed: r.seed, seconds: 1, probe: true, tr: newTracer(), work: r.work}
		pres, err := workloads[name](p)
		if err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		res.attempted += pres.attempted
		res.failed += pres.failed
		res.wrong += pres.wrong
		var filled []string
		for _, d := range layerMetrics {
			if _, ok := res.layer[d.name]; ok {
				continue
			}
			if v, ok := pres.layer[d.name]; ok {
				res.layer[d.name] = v
				filled = append(filled, d.name)
			}
		}
		res.note("probe %s (reduced size) supplied: %s", name, strings.Join(filled, " "))
	}
	return nil
}
