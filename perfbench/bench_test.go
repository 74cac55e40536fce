package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// tinyConfig shrinks every workload so the self-test runs in seconds.
const tinyConfig = `{
  "k": 3,
  "engine_batch": {"n": 2000, "batch": 4, "truncated_eps": 0.05, "setups": 2},
  "serve_mixed": {"n": 1500, "test_points": 2, "connections": 2, "exact_share": 0.4, "auto_share": 0.4, "auto_eps": 0.1, "setups": 2},
  "delta_stream": {"n": 1000, "append_rows": 5, "test_points": 3, "rate_per_s": 20, "setups": 2},
  "ann_index": {"n": 600, "batch": 4, "eps": 0.1, "delta": 0.1, "index_seed": 7, "setups": 2}
}`

// ownLayers are the per-layer metrics each workload must measure itself
// (the rest may read 0 as not exercised).
var ownLayers = map[string][]string{
	"engine_batch": {"knnshapley.new_ms", "knn.precomp_ms", "dataset.fingerprint_ms", "knn.scan_ms", "knn.scan_bytes",
		"knn.scan_gbps", "vec.argsort_ms", "kheap.topk_ms", "core.recurrence_ms", "core.reduce_ms",
		"core.parallel_efficiency", "trace.overhead_ratio", "unattributed_ms"},
	"serve_mixed": {"wire.decode_ms", "wire.encode_ms", "wire.request_bytes", "wire.response_bytes", "registry.put_ms",
		"registry.get_ms", "registry.puts", "jobs.queue_wait_ms", "jobs.run_ms", "jobs.session_ms", "jobs.cache_hit_ratio",
		"journal.append_ms", "journal.records", "cluster.scan_ms", "cluster.rank_build_ms", "cluster.replay_ms",
		"cluster.from_scratch", "svserver.upload_ms", "svserver.value_ms", "trace.overhead_ratio", "unattributed_ms"},
	"delta_stream": {"registry.apply_delta_ms", "registry.deltas", "registry.disk_bytes_growth", "cluster.patches",
		"cluster.patch_ratio", "knnshapley.new_ms", "jobs.valuer_builds", "svserver.delta_ms", "svserver.value_ms",
		"loadgen.late_p90_ms", "trace.overhead_ratio"},
	"ann_index": {"lsh.tune_ms", "core.lsh_build_ms", "core.lsh_load_ms", "core.kd_build_ms", "core.kd_load_ms",
		"lsh.tables", "lsh.index_bytes", "registry.index_put_ms", "registry.index_get_ms", "lsh.query_ms",
		"lsh.candidates_per_query", "lsh.recall", "lsh.eps_miss_ratio", "kdtree.query_ms", "trace.overhead_ratio"},
}

// TestWorkloadsTiny runs all four workloads end to end at tiny sizes,
// untraced and traced: every metric is emitted with its unit and every
// output check (Utility, eps, HTTP and replay bit-identity) passes.
func TestWorkloadsTiny(t *testing.T) {
	cfg := loadTiny(t)
	server := filepath.Join(t.TempDir(), "svserver")
	if out, err := exec.Command("go", "build", "-o", server, "knnshapley/cmd/svserver").CombinedOutput(); err != nil {
		t.Fatalf("build svserver: %v\n%s", err, out)
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{cfg: cfg, workload: name, seed: 3, seconds: 0.3, traced: traced,
				svserver: server, tmp: t.TempDir(), rep: newReport()}
			if err := run(e); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res, err := e.finish()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, e.rep.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
			}
			for _, m := range endToEnd {
				if v := e.rep.values[m.name].Value; v <= 0 {
					t.Errorf("%s traced=%v: end-to-end metric %s = %v, want > 0", name, traced, m.name, v)
				}
			}
			if traced {
				for _, m := range ownLayers[name] {
					if _, ok := e.rep.values[m]; !ok {
						t.Errorf("%s: layer metric %s not measured", name, m)
					}
				}
			}
		}
	}
}

// TestLSHCheckFails shows the per-point check of ann_index lsh ops failing:
// a query that returns the wrong neighbors puts most test points more than
// eps from exact, so every lsh op fails, while the true K* neighbors pass.
func TestLSHCheckFails(t *testing.T) {
	cfg := loadTiny(t)
	c, k := cfg.ANN, cfg.K
	kStar := core.KStar(k, c.Eps)
	e := &env{cfg: cfg, seed: 3, rep: newReport()}
	train := dataset.MNISTLike(c.N, e.inputSeed(1))
	truth := func(q []float64) []int { return knn.Neighbors(train.X, q, kStar, vec.L2) }
	var l libReplay
	var ops []lshOp
	for b := 0; b < 4; b++ {
		vals := l.annValue(nil, "", train, e.annTest(b), k, c.Eps, truth, nil)
		ops = append(ops, lshOp{id: 2 * b, batch: b, hash: bitsHash(vals)})
	}
	e.checkLSH(ops, train, truth)
	if miss := e.rep.values["lsh.eps_miss_ratio"].Value; len(e.rep.failedOps) != 0 || miss != 0 {
		t.Fatalf("true neighbors: %d failed ops, miss ratio %g: %v", len(e.rep.failedOps), miss, e.rep.failures)
	}

	e.rep = newReport()
	firstRows := func([]float64) []int {
		ids := make([]int, kStar)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	e.checkLSH(ops, train, firstRows)
	if miss := e.rep.values["lsh.eps_miss_ratio"].Value; len(e.rep.failedOps) != len(ops) || miss <= 2*c.Delta {
		t.Fatalf("wrong neighbors: %d of %d ops failed, miss ratio %g (delta %g)", len(e.rep.failedOps), len(ops), miss, c.Delta)
	}

	// The true neighbors in reverse order: all K* are retrieved, so a point
	// more than eps from exact breaks Theorem 2 whatever the share.
	e.rep = newReport()
	reversed := func(q []float64) []int {
		ids := truth(q)
		slices.Reverse(ids)
		return ids
	}
	e.checkLSH(ops, train, reversed)
	if !slices.ContainsFunc(e.rep.failures, func(f string) bool { return strings.Contains(f, "all its K* nearest") }) {
		t.Fatalf("reversed neighbors: no Theorem 2 failure: %v", e.rep.failures)
	}
}

// loadTiny loads tinyConfig through loadConfig.
func loadTiny(t *testing.T) Config {
	t.Helper()
	path := filepath.Join(t.TempDir(), "workloads.json")
	if err := os.WriteFile(path, []byte(tinyConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestMetricListsMatchBenchmarkJSON pins metrics.go to BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metricSpec
		want []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("metrics.go lists %d metrics, BENCHMARK.json %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].name != m.Name || c.got[i].unit != m.Unit {
				t.Errorf("metric %d: metrics.go %v, BENCHMARK.json %v", i, c.got[i], m)
			}
		}
	}
}
