// Command perfbench is the repository's benchmark: one process that drives
// the engine through the public x100 API on a seeded TPC-H database, times
// end to end what a user sees, attributes the time to the engine's layers
// in a separate traced run, and checks every answer against an independent
// engine. See README.md for the workloads, metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line the benchmark prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one run's settings and everything it measured.
type runner struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	dir      string // scratch directory for this run's chunk stores

	spans *spanLog // nil unless traced
	root  int      // root span id

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	e2e   map[string]metric
	layer map[string]metric
	info  map[string]any // sample counts and breakdowns, for the record only
}

var workloads = map[string]func(*runner) error{
	"tpch-mem":  runTPCHMem,
	"tpch-disk": runTPCHDisk,
	"htap":      runHTAP,
}

func main() {
	workload := flag.String("workload", "", "workload to run: tpch-mem, tpch-disk or htap")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window, in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for data, records and spans")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload tpch-mem|tpch-disk|htap, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	r := &runner{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		dir:      filepath.Join(*dir, fmt.Sprintf("data-%d", os.Getpid())),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		info:     map[string]any{},
	}
	if r.traced {
		r.spans = newSpanLog()
	}
	if err := r.execute(run, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs the workload, writes the record (and spans when traced)
// under outDir, and prints the summary line.
func (r *runner) execute(run func(*runner) error, outDir string) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	host := stampHost(r.seed, tpchSF)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d window=%s traced=%v nproc=%d gomaxprocs=%d effective_cores=%.2f %s commit=%s\n",
		r.workload, r.seed, r.window, r.traced, host.NumCPU, host.GOMAXPROCS, host.EffectiveCores, host.GoVersion, host.Commit)

	r.root = r.spans.begin("run "+r.workload, 0)
	err := run(r)
	r.spans.end(r.root, nil)
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	if r.attempted > 0 {
		r.info["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}

	metrics := r.e2e
	if r.traced {
		metrics = r.layer
	}
	out := summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	if err := r.writeRecord(outDir, host, out); err != nil {
		return err
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	r.printTable(metrics)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord stores everything the run measured, stamped with the host,
// under outDir/results; a traced run also writes its spans there.
func (r *runner) writeRecord(outDir string, host hostStamp, out summary) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.traced {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, trace)
	rec := map[string]any{
		"workload":   r.workload,
		"window_s":   r.window.Seconds(),
		"host":       host,
		"correct":    out.Correct,
		"attempted":  out.Attempted,
		"failed":     out.Failed,
		"failures":   r.failures,
		"end_to_end": r.e2e,
		"per_layer":  r.layer,
		"info":       r.info,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.write(filepath.Join(dir, base+".spans.json"))
	}
	return nil
}

// printTable prints every reported metric by name with its unit.
func (r *runner) printTable(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// attempt counts one checked operation; err (or a wrong answer passed as
// err) counts it failed.
func (r *runner) attempt(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}
