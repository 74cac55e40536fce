// Command perfbench is the repository benchmark: four named workloads, each
// run from one process, reporting end-to-end metrics with tracing off
// (-trace 0) and a per-layer breakdown from a traced replay (-trace 1). Every
// operation's output is checked; a failed check counts in "failed" and makes
// the command exit non-zero. See README.md for the workloads and metrics.
//
// It is normally started through run.sh, which builds it and svserver from
// the tree under test:
//
//	bash perfbench/run.sh --workload engine_batch --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"engine_batch": runEngineBatch,
	"serve_mixed":  runServeMixed,
	"delta_stream": runDeltaStream,
	"ann_index":    runANNIndex,
}

// metric is one reported value in the result JSON.
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

func main() {
	var (
		workload = flag.String("workload", "", "workload name: engine_batch, serve_mixed, delta_stream or ann_index")
		seed     = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay; 0 = end-to-end metrics")
		root     = flag.String("root", ".", "repository root (holds perfbench/workloads.json)")
		server   = flag.String("svserver", "", "svserver binary built from the tree under test")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	cfg, err := loadConfig(filepath.Join(*root, "perfbench", "workloads.json"))
	if err != nil {
		fatalf("%v", err)
	}
	tmpRoot := filepath.Join(*root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fatalf("temp dir: %v", err)
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		fatalf("temp dir: %v", err)
	}
	e := &env{
		cfg: cfg, workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		svserver: *server, tmp: tmp, rep: newReport(),
	}
	runErr := run(e)
	if err := os.RemoveAll(tmp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", tmp, err)
	}
	if runErr != nil {
		fatalf("%s: %v", *workload, runErr)
	}
	res, err := e.finish()
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	e.rep.print(os.Stdout, e)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// env is one run's configuration and its report.
type env struct {
	cfg      Config
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	svserver string
	tmp      string
	rep      *report
}

// inputSeed derives the seed of one generated input from the workload seed
// (splitmix64), so inputs differ across seeds and repeat within one.
func (e *env) inputSeed(stream uint64) uint64 {
	z := e.seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// finish adds value_err_max and renders the result line.
func (e *env) finish() (result, error) {
	e.rep.set("value_err_max", e.rep.valueErr, "largest |approximate - exact| over all ops")
	return e.rep.result(e.traced)
}

// report collects a run's metrics, sample counts and failures.
type report struct {
	values    map[string]metric
	notes     map[string]string
	host      []string
	attempted int
	failedOps map[int]bool
	failures  []string
	valueErr  float64
}

func newReport() *report {
	return &report{values: map[string]metric{}, notes: map[string]string{}, failedOps: map[int]bool{}}
}

// set records a metric with an optional note (its sample count or base).
func (r *report) set(name string, value float64, note string) {
	unit, ok := unitOf(name)
	if !ok {
		panic("perfbench: metric " + name + " is not declared in metrics.go")
	}
	r.values[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a failed check of operation op. An op counts once in
// "failed" however many of its checks fail; the first few reasons are
// printed.
func (r *report) fail(op int, format string, args ...any) {
	r.failedOps[op] = true
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// noteErr folds one |approximate − exact| observation into value_err_max.
func (r *report) noteErr(err float64) {
	if err > r.valueErr || math.IsNaN(err) {
		r.valueErr = err
	}
}

// result renders the JSON line: the end-to-end metrics untraced, the
// per-layer ones traced. A per-layer metric the workload never exercises
// reads 0 and is marked n/a in the printed report.
func (r *report) result(traced bool) (result, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	failed := len(r.failedOps)
	out := result{Attempted: r.attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	if r.attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	for _, m := range names {
		v, ok := r.values[m.name]
		if !ok {
			if !traced {
				return out, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			v = metric{Value: 0, Unit: m.unit}
			r.notes[m.name] = "n/a on this workload"
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return out, fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
		out.Metrics[m.name] = v
	}
	return out, nil
}

// print writes the human-readable report: host record, every metric with
// its unit and note, and the failures.
func (r *report) print(w *os.File, e *env) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", e.workload, e.seed, e.seconds, e.traced)
	for _, h := range r.host {
		fmt.Fprintf(w, "# host %s\n", h)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	for n := range r.notes {
		if _, ok := r.values[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.values[n]
		if m.Unit == "" {
			m.Unit, _ = unitOf(n)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	fmt.Fprintf(w, "%-32s %14.6g %-6s attempted=%d failed=%d\n", "failed_ratio",
		float64(len(r.failedOps))/float64(max(r.attempted, 1)), "ratio", r.attempted, len(r.failedOps))
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED %s\n", strings.ReplaceAll(f, "\n", " "))
	}
}
