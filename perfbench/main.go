// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the CSPM library and serving fleet in a single process,
// checks that every output is correct, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of standard
// output. Every workload prints the same metrics, the ones BENCHMARK.json
// declares; what else it measures goes to a "# metrics" diagnostic line:
//
//	perfbench --workload mine-cold --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - mine-cold: one closed-loop caller repeats a cold mining pass
//     (Mine on USFlight, MineSharded and MineDistributed on the islands graph).
//   - serve-read: an open loop of completion and pattern-page requests, at a
//     ladder of fixed rates, against one idle host.
//   - serve-write: an open loop of mutation batches against a durable leader
//     host with one replica host, beside replica reads and metric scrapes.
//
// The seed picks the generated graphs, query vertices, arrival times and
// edits; the same seed gives the same inputs. Diagnostic lines (the machine
// record, per-step latencies, trace breakdowns) precede the result line.
// Run it through run.sh, which builds it from the checkout's sources.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is what every workload receives from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where traced runs write their span files
	clock    *stealClock
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order. Every workload prints all of endToEnd with --trace 0 and all of
// perLayer with --trace 1. primary_ms and secondary_ms are the medians of
// the workload's two gated operations, net of steal:
//
//	mine-cold    one cold mining pass      MineSharded on the islands alone
//	serve-read   a completion request      a pattern page (nominal step)
//	serve-write  batch visible on leader   batch visible on the replica
var (
	endToEnd = []string{"setup_s", "heap_mb", "primary_ms.p50", "secondary_ms.p50"}
	perLayer = []string{
		"intset.icd_ns", "invdb.build_ms", "invdb.evalmerge_ns",
		"cspm.gain_evals", "cspm.merges", "cspm.merges_per_keval",
		"cspm.stage.fingerprint_ms", "cspm.stage.diff_ms", "cspm.stage.shard_mine_ms", "cspm.stage.merge_ms",
		"completion.score_us_per_vertex", "completion.patterns_scanned",
		"serve.handler_us.complete", "serve.handler_us.patterns",
		"serve.handler_allocs.complete", "serve.handler_allocs.patterns",
		"serveclient.transport_us.complete", "serveclient.allocs.complete",
		"obs.scrape_ms",
	}
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's outcome: operation counts per type, correctness
// mismatches, and the metrics to print. Safe for concurrent use.
type report struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
	refused   map[string]int
	metrics   map[string]metric
	notes     []string // reasons for failures, printed as diagnostics
}

func newReport() *report {
	return &report{
		attempted: map[string]int{}, failed: map[string]int{}, refused: map[string]int{},
		metrics: map[string]metric{},
	}
}

// set records a metric; a NaN or infinite value is a benchmark bug and is
// reported as a failure instead of printed.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric", "metric %s has no value", name)
		return
	}
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *report) attempt(op string, n int) {
	r.mu.Lock()
	r.attempted[op] += n
	r.mu.Unlock()
}

// fail counts one failed operation of type op with its reason.
func (r *report) fail(op, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed[op]++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, op+": "+fmt.Sprintf(format, args...))
	}
}

func (r *report) refuse(op string) {
	r.mu.Lock()
	r.refused[op]++
	r.mu.Unlock()
}

// result splits the metrics: the declared ones go on the result line, the
// rest are returned as diagnostics. A declared metric the run did not
// measure is an error: the result line must carry every declared metric.
func (r *report) result(declared []string) (result, map[string]metric, error) {
	res := result{Metrics: map[string]metric{}}
	extra := map[string]metric{}
	for name, m := range r.metrics {
		extra[name] = m
	}
	var missing []string
	for _, name := range declared {
		m, ok := extra[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = m
		delete(extra, name)
	}
	for _, n := range r.attempted {
		res.Attempted += n
	}
	for _, n := range r.failed {
		res.Failed += n
	}
	for _, n := range r.refused {
		res.Failed += n
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(missing) > 0 {
		return res, extra, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, extra, nil
}

// diag prints one diagnostic line: a label and a JSON value.
func diag(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", fmt.Sprint(v)))
	}
	fmt.Printf("# %s %s\n", label, b)
}

var workloads = map[string]func(cfg config, r *report) error{
	"mine-cold":   runMineCold,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: mine-cold, serve-read or serve-write")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch state")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload mine-cold|serve-read|serve-write, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	diag("env", machineRecord(cfg))
	r := newReport()
	cfg.clock = startStealClock()
	start := time.Now()
	err := run(cfg, r)
	diag("steal_share", cfg.clock.share(start, time.Now()))
	cfg.clock.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	ops := map[string][3]int{}
	for op, n := range r.attempted {
		ops[op] = [3]int{n, r.failed[op], r.refused[op]}
	}
	for op, n := range r.failed {
		if _, ok := ops[op]; !ok {
			ops[op] = [3]int{0, n, r.refused[op]}
		}
	}
	diag("ops attempted/failed/refused", ops)
	for _, n := range r.notes {
		fmt.Printf("# failure %s\n", n)
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	res, extra, err := r.result(declared)
	diag("metrics", extra)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// machineRecord identifies the box and the code a result came from, so
// numbers from different machines are never mixed up.
func machineRecord(cfg config) map[string]any {
	rec := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rec["commit"] = s.Value
			}
		}
	}
	return rec
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and go.mod of the module under root
// (the benchmark's own directory excluded): a commit identifier that also
// works in a checkout that is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// medianSetup runs setup reps times, keeping the last instance and closing
// the others, and returns the median set-up time in seconds, net of steal.
// Setting up several times gives a set-up time steady enough to gate.
func medianSetup[T any](reps int, clk *stealClock, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var s sample
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(last)
		}
		t := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		s.add(clk.net(t, time.Now()).Seconds())
		last = v
		runtime.GC()
	}
	return last, s.median(), nil
}

// heapMB forces a collection and returns the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
