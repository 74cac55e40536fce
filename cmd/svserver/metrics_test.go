package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/server"
	"knnshapley/internal/wire"
)

// seriesKey ties one /metrics family to the /statz key path whose value
// each of its samples must equal. A family with a label has one sample per
// entry of the object (label "method") or list (label "peer", keyed by the
// entry's "url") the path leads to.
type seriesKey struct {
	family, label, key string
}

// singleNodeSeries is every family a single-node svserver exposes, written
// by hand from the exposition it serves, so it pins the names independently
// of the struct tags that now declare them. Keys are /statz paths, except
// "cluster." ones, which are /cluster/statz paths.
var singleNodeSeries = []seriesKey{
	{"svserver_jobs_retained", "", "jobs"},
	{"svserver_jobs_queued", "", "queued"},
	{"svserver_jobs_running", "", "running"},
	{"svserver_job_cache_hits_total", "", "cacheHits"},
	{"svserver_job_runs_total", "", "runs"},
	{"svserver_valuer_builds_total", "", "valuerBuilds"},
	{"svserver_jobs_replayed_total", "", "replayed"},
	{"svserver_jobs_restored_total", "", "restored"},
	{"svserver_report_cache_entries", "", "reportEntries"},
	{"svserver_report_cache_bytes", "", "reportBytes"},
	{"svserver_jobs_held_reports", "", "heldReports"},
	{"svserver_jobs_held_report_bytes", "", "heldReportBytes"},
	{"svserver_valuer_cache_entries", "", "valuerEntries"},
	{"svserver_registry_datasets", "", "registry.datasets"},
	{"svserver_registry_resident", "", "registry.resident"},
	{"svserver_registry_mem_bytes", "", "registry.memBytes"},
	{"svserver_registry_disk_bytes", "", "registry.diskBytes"},
	{"svserver_registry_hits_total", "", "registry.hits"},
	{"svserver_registry_misses_total", "", "registry.misses"},
	{"svserver_registry_loads_total", "", "registry.loads"},
	{"svserver_registry_evictions_total", "", "registry.evictions"},
	{"svserver_registry_puts_total", "", "registry.puts"},
	{"svserver_registry_reuploads_total", "", "registry.reuploads"},
	{"svserver_registry_deletes_total", "", "registry.deletes"},
	{"svserver_registry_reclaims_total", "", "registry.reclaims"},
	{"svserver_registry_deltas_total", "", "registry.deltas"},
	{"svserver_registry_corrupt_total", "", "registry.corrupt"},
	{"svserver_index_store_indexes", "", "indexes.indexes"},
	{"svserver_index_store_disk_bytes", "", "indexes.diskBytes"},
	{"svserver_index_store_saves_total", "", "indexes.saves"},
	{"svserver_index_store_loads_total", "", "indexes.loads"},
	{"svserver_index_store_misses_total", "", "indexes.misses"},
	{"svserver_index_store_reclaims_total", "", "indexes.reclaims"},
	{"svserver_index_store_deletes_total", "", "indexes.deletes"},
	{"svserver_index_store_corrupt_total", "", "indexes.corrupt"},
	{"svserver_planner_plans_total", "", "planner.plans"},
	{"svserver_planner_fallbacks_total", "", "planner.fallbacks"},
	{"svserver_planner_extrapolated_total", "", "planner.extrapolated"},
	{"svserver_planner_picks_total", "method", "planner.picks"},
	{"svserver_incremental_fromscratch_total", "", "incremental.from_scratch"},
	{"svserver_incremental_patches_total", "", "incremental.patches"},
	{"svserver_incremental_removals_total", "", "incremental.removals"},
	{"svserver_incremental_replays_total", "", "incremental.replays"},
	{"svserver_rank_cache_entries", "", "rankCache.entries"},
	{"svserver_rank_cache_bytes", "", "rankCache.bytes"},
	{"svserver_rank_cache_hits_total", "", "rankCache.hits"},
	{"svserver_rank_cache_misses_total", "", "rankCache.misses"},
	{"svserver_rank_cache_evictions_total", "", "rankCache.evictions"},
	{"svserver_rank_cache_promotions_total", "", "rankCache.promotions"},
	{"svserver_rank_cache_probation_entries", "", "rankCache.probationEntries"},
	{"svserver_rank_cache_probation_bytes", "", "rankCache.probationBytes"},
	{"svserver_shard_jobs_total", "", "cluster.shardJobs"},
}

// coordinatorSeries are the families only a coordinator exposes with
// meaning; the four counters also appear, at 0, on every other server.
var coordinatorSeries = []seriesKey{
	{"svserver_cluster_valuations_total", "", "cluster.valuations"},
	{"svserver_cluster_reassignments_total", "", "cluster.reassignments"},
	{"svserver_cluster_fallbacks_total", "", "cluster.fallbacks"},
	{"svserver_cluster_wire_bytes_total", "", "cluster.wireBytes"},
	{"svserver_cluster_peer_healthy", "peer", "cluster.peers.healthy"},
	{"svserver_cluster_peer_shards_total", "peer", "cluster.peers.shards"},
	{"svserver_cluster_peer_failures_total", "peer", "cluster.peers.failures"},
	{"svserver_cluster_peer_retries_total", "peer", "cluster.peers.retries"},
}

// TestMetricsContract pins the /metrics exposition against /statz and
// /cluster/statz: every listed family is present with exactly one HELP and
// one TYPE line, every sample equals the matching JSON value, and nothing
// unlisted appears.
func TestMetricsContract(t *testing.T) {
	// value uploads a fresh train/test pair to srv and runs the given
	// by-ref valuations over it, returning the two refs.
	value := func(t *testing.T, srv *server.Server, seed uint64, reqs ...map[string]any) (string, string) {
		t.Helper()
		var refs [2]string
		for i, d := range []*knnshapley.Dataset{knnshapley.SynthIris(60, seed), knnshapley.SynthIris(6, seed+1)} {
			var up wire.UploadResponse
			mustDo(t, srv, http.MethodPost, "/datasets", &payload{X: d.X, Labels: d.Labels}, &up)
			refs[i] = up.ID
		}
		for _, req := range reqs {
			req["k"], req["trainRef"], req["testRef"] = 3, refs[0], refs[1]
			mustDo(t, srv, http.MethodPost, "/value", req, nil)
		}
		return refs[0], refs[1]
	}

	t.Run("single", func(t *testing.T) {
		srv := newTestServer(t, 64<<20, 0)
		trainID, testID := value(t, srv, 61, map[string]any{"algorithm": "exact"},
			map[string]any{"algorithm": "auto", "eps": 0.1})
		add := knnshapley.SynthIris(4, 63)
		var child wire.DeltaResponse
		mustDo(t, srv, http.MethodPut, "/datasets/"+trainID+"/delta",
			wire.DeltaRequest{Append: &payload{X: add.X, Labels: add.Labels}}, &child)
		mustDo(t, srv, http.MethodPost, "/value", map[string]any{"algorithm": "exact", "k": 3, "trainRef": child.ID, "testRef": testID}, nil)
		checkMetricsContract(t, srv, singleNodeSeries, coordinatorSeries)
	})

	t.Run("coordinator", func(t *testing.T) {
		var peers []string
		for i := 0; i < 2; i++ {
			ws := httptest.NewServer(newTestServer(t, 64<<20, 0).Handler())
			t.Cleanup(ws.Close)
			peers = append(peers, ws.URL)
		}
		c := cluster.New(cluster.Config{Peers: peers, HealthInterval: -1, PollInterval: 5 * time.Millisecond})
		t.Cleanup(c.Close)
		coord := newCoordinatorServer(t, c)
		value(t, coord, 64, map[string]any{"algorithm": "exact"})
		if c.Statz().Valuations != 1 {
			t.Fatal("the valuation did not scatter")
		}
		checkMetricsContract(t, coord, append(append([]seriesKey(nil), singleNodeSeries...), coordinatorSeries...), nil)
	})
}

// mustDo is do for requests that must succeed.
func mustDo(t *testing.T, srv *server.Server, method, path string, body, out any) {
	t.Helper()
	if rec := do(t, srv, method, path, body, out); rec.Code >= 300 {
		t.Fatalf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
	}
}

// checkMetricsContract reads srv's /metrics, /statz and /cluster/statz and
// checks the listed series against them. Families in optional may appear
// too, at the values their keys hold; no other family may.
func checkMetricsContract(t *testing.T, srv *server.Server, series, optional []seriesKey) {
	t.Helper()
	var statz, clusterStatz map[string]any
	mustDo(t, srv, http.MethodGet, "/statz", nil, &statz)
	mustDo(t, srv, http.MethodGet, "/cluster/statz", nil, &clusterStatz)
	statz["cluster"] = clusterStatz
	samples, help, typ := parseMetrics(t, do(t, srv, http.MethodGet, "/metrics", nil, nil).Body.String())

	listed := map[string]bool{}
	check := func(s seriesKey) {
		listed[s.family] = true
		if help[s.family] != 1 || typ[s.family] != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines, want 1 and 1", s.family, help[s.family], typ[s.family])
		}
		want := map[string]float64{}
		switch v := lookup(t, statz, s.key).(type) {
		case map[string]any: // planner picks, one sample per method
			for m, n := range v {
				want[fmt.Sprintf("%s{%s=%q}", s.family, s.label, m)] = jsonNumber(t, n)
			}
		case []any: // peers, one sample per peer URL
			field := s.key[strings.LastIndex(s.key, ".")+1:]
			for _, p := range v {
				p := p.(map[string]any)
				want[fmt.Sprintf("%s{%s=%q}", s.family, s.label, p["url"])] = jsonNumber(t, p[field])
			}
		default:
			want[s.family] = jsonNumber(t, v)
		}
		if len(want) == 0 {
			t.Errorf("%s: /statz key %s holds no samples", s.family, s.key)
		}
		for name, w := range want {
			if got, ok := samples[name]; !ok {
				t.Errorf("%s missing from /metrics", name)
			} else if got != w {
				t.Errorf("%s = %v, /statz %s = %v", name, got, s.key, w)
			}
		}
	}
	for _, s := range series {
		check(s)
	}
	for _, s := range optional {
		if typ[s.family] > 0 {
			check(s)
		}
	}
	for name := range samples {
		if f, _, _ := strings.Cut(name, "{"); !listed[f] {
			t.Errorf("unlisted series %s on /metrics", name)
		}
	}
	for f := range typ {
		if !listed[f] {
			t.Errorf("unlisted family %s on /metrics", f)
		}
	}
}

// lookup resolves a dotted key path in decoded JSON. A path through a list
// ("cluster.peers.shards") stops at the list; the caller reads the field
// from each element.
func lookup(t *testing.T, v any, path string) any {
	t.Helper()
	for _, k := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return v
		}
		if v, ok = m[k]; !ok {
			t.Fatalf("no key %s in /statz", path)
		}
	}
	return v
}

// jsonNumber reads a decoded JSON value as its /metrics sample: numbers as
// themselves, booleans as 1 or 0.
func jsonNumber(t *testing.T, v any) float64 {
	t.Helper()
	switch v := v.(type) {
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	}
	t.Fatalf("non-numeric /statz value %v", v)
	return 0
}

// parseMetrics parses a /metrics page into sample values keyed by series
// (name plus label set) and the HELP and TYPE line counts per family. A
// family's TYPE must match its name: counter for _total, gauge otherwise.
func parseMetrics(t *testing.T, page string) (samples map[string]float64, help, typ map[string]int) {
	t.Helper()
	samples, help, typ = map[string]float64{}, map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[fields[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			typ[fields[2]]++
			want := "gauge"
			if strings.HasSuffix(fields[2], "_total") {
				want = "counter"
			}
			if fields[3] != want {
				t.Errorf("%s has TYPE %s, want %s", fields[2], fields[3], want)
			}
		default:
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("bad sample line %q", line)
			}
			if _, dup := samples[line[:i]]; dup {
				t.Errorf("sample %s repeated", line[:i])
			}
			samples[line[:i]] = v
		}
	}
	return samples, help, typ
}
