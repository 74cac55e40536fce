// Command svbench regenerates the tables and figures of the paper's
// evaluation (Section 6 and Appendix A) on synthetic stand-ins of the
// benchmark datasets.
//
// Usage:
//
//	svbench -exp fig7            # one experiment
//	svbench -exp all             # everything (minutes)
//	svbench -exp fig7 -scale 0.1 # 10% of the paper's dataset sizes
//
// With -benchjson FILE the command instead runs the engine micro-benchmarks
// (exact / truncated / Monte-Carlo at N ∈ {1e3, 1e4, 1e5}, flat-storage vs
// slice-of-slices distance scans, the inline-vs-by-ref wire comparison, and
// the Evaluate dispatch probes — evaluate_dispatch must stay < 1µs/req) and
// writes machine-readable ns/op records for the perf trajectory
// (BENCH_1.json):
//
//	svbench -benchjson BENCH_9.json
//	svbench -benchjson BENCH_9.json -benchmax 10000   # CI smoke: skip N=1e5
//
// With -compare OLD.json the freshly written report is diffed against a
// committed baseline record by record (matched on name/n/dim) and svbench
// exits non-zero when any record at least 10µs in the baseline got slower
// than -threshold× the old ns/op — the perf-regression gate scripts/verify.sh
// runs against the committed BENCH_9.json:
//
//	svbench -benchjson /tmp/now.json -benchmax 10000 -compare BENCH_9.json -threshold 4
//
// Each runner in internal/experiments names the figure or table it
// reproduces, and that package's tests assert the shapes the paper reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"knnshapley/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment name or 'all'")
		scale     = flag.Float64("scale", 0, "dataset size multiplier for fig7/fig8/fig17 (default 0.01 of the paper's sizes)")
		list      = flag.Bool("list", false, "list experiments")
		benchJSON = flag.String("benchjson", "", "write engine micro-benchmark results to this JSON file and exit")
		benchMax  = flag.Int("benchmax", 0, "with -benchjson: cap the training-set sizes measured (0 = full 1e3..1e5 sweep)")
		compare   = flag.String("compare", "", "with -benchjson: diff the fresh report against this baseline JSON and fail on regressions")
		threshold = flag.Float64("threshold", 2, "with -compare: fail when a record exceeds this multiple of its baseline ns/op")
	)
	flag.Parse()
	if *compare != "" && *benchJSON == "" {
		fmt.Fprintln(os.Stderr, "svbench: -compare requires -benchjson")
		os.Exit(2)
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *benchMax); err != nil {
			fmt.Fprintf(os.Stderr, "svbench: %v\n", err)
			os.Exit(1)
		}
		if *compare != "" {
			if err := runCompare(*benchJSON, *compare, *threshold); err != nil {
				fmt.Fprintf(os.Stderr, "svbench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, n := range experiments.Names() {
			fmt.Println("  " + n)
		}
		return
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		tbl, err := experiments.Run(name, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("  (%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}
}
