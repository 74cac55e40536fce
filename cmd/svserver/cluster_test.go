package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/wire"
)

// uploadBinaryTo pushes d to srv's registry over HTTP and returns its ID.
func uploadBinaryTo(t *testing.T, url string, d *knnshapley.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := knnshapley.WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/datasets", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up wire.UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.ID == "" {
		t.Fatalf("upload returned no ID (HTTP %d)", resp.StatusCode)
	}
	return up.ID
}

// TestClusterModeEndToEnd runs three worker svservers and one coordinator
// svserver fully over HTTP: upload once to the coordinator, valuate by-ref,
// and require values bit-identical to a plain single-node svserver's answer.
func TestClusterModeEndToEnd(t *testing.T) {
	var workerURLs []string
	for i := 0; i < 3; i++ {
		w := newTestServer(t, 64<<20, 0)
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		workerURLs = append(workerURLs, ws.URL)
	}

	c := cluster.New(cluster.Config{
		Peers:          workerURLs,
		HealthInterval: -1,
		PollInterval:   5 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	coord := newCoordinatorServer(t, c)
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)

	local := newTestServer(t, 64<<20, 0)

	train := knnshapley.SynthIris(133, 41)
	test := knnshapley.SynthIris(29, 42)
	trainID := uploadBinaryTo(t, cs.URL, train)
	testID := uploadBinaryTo(t, cs.URL, test)

	for _, algo := range []struct {
		name string
		req  map[string]any
	}{
		{"exact", map[string]any{"algorithm": "exact", "k": 4, "trainRef": trainID, "testRef": testID}},
		{"truncated", map[string]any{"algorithm": "truncated", "k": 4, "eps": 0.25, "trainRef": trainID, "testRef": testID}},
	} {
		body, _ := json.Marshal(algo.req)
		resp, err := http.Post(cs.URL+"/value", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", algo.name, resp.StatusCode, raw)
		}
		var dist valueResponse
		if err := json.Unmarshal(raw, &dist); err != nil {
			t.Fatal(err)
		}

		// The single-node reference runs the same request with inline data.
		localReq := valueRequest{K: 4, Algorithm: algo.name,
			Train: &payload{X: train.X, Labels: train.Labels},
			Test:  &payload{X: test.X, Labels: test.Labels},
		}
		if algo.name == "truncated" {
			localReq.Params = knnshapley.TruncatedParams{Eps: 0.25}
		}
		rec, want := postValue(t, local, localReq)
		if rec.Code != http.StatusOK {
			t.Fatalf("local %s: HTTP %d: %s", algo.name, rec.Code, rec.Body.String())
		}
		if len(dist.Values) != len(want.Values) {
			t.Fatalf("%s: %d values, want %d", algo.name, len(dist.Values), len(want.Values))
		}
		for i := range dist.Values {
			if math.Float64bits(dist.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s: value[%d] = %v, local %v — cluster mode must be bit-identical",
					algo.name, i, dist.Values[i], want.Values[i])
			}
		}
	}

	// The cluster surface: coordinator statz counts the valuations, workers
	// counted their shard sub-jobs, and /metrics speaks Prometheus text.
	resp, err := http.Get(cs.URL + "/cluster/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st wire.ClusterStatz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Coordinator || st.Valuations != 2 || len(st.Peers) != 3 {
		t.Fatalf("cluster statz = %+v, want coordinator with 2 valuations over 3 peers", st)
	}

	var shardJobs int64
	for _, u := range workerURLs {
		resp, err := http.Get(u + "/cluster/statz")
		if err != nil {
			t.Fatal(err)
		}
		var ws wire.ClusterStatz
		if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ws.Coordinator {
			t.Fatalf("worker %s claims to be a coordinator", u)
		}
		shardJobs += ws.ShardJobs
	}
	if shardJobs == 0 {
		t.Fatal("no worker accepted a shard sub-job")
	}

	for _, u := range append([]string{cs.URL}, workerURLs[0]) {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(raw)
		if !strings.Contains(text, "# TYPE svserver_job_runs_total counter") ||
			!strings.Contains(text, "svserver_shard_jobs_total") {
			t.Fatalf("metrics exposition from %s missing expected series:\n%s", u, text)
		}
	}
	if body, err := io.ReadAll(func() io.ReadCloser {
		r, _ := http.Get(cs.URL + "/metrics")
		return r.Body
	}()); err != nil || !strings.Contains(string(body), "svserver_cluster_valuations_total 2") {
		t.Fatalf("coordinator metrics missing cluster counters:\n%s", body)
	}
}

// TestClusterModeFallsBackWhenPeersDown pins the degraded path end to end: a
// coordinator whose only peers are unreachable still answers, locally.
func TestClusterModeFallsBackWhenPeersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c := cluster.New(cluster.Config{Peers: []string{deadURL}, HealthInterval: -1})
	t.Cleanup(c.Close)
	srv := newCoordinatorServer(t, c)

	rec, resp := postValue(t, srv, testRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback valuation failed: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Values) == 0 {
		t.Fatal("fallback valuation returned no values")
	}
	var st wire.ClusterStatz
	mustDo(t, srv, http.MethodGet, "/cluster/statz", nil, &st)
	if st.Fallbacks == 0 {
		t.Fatal("fallback not counted")
	}

	// Sanity: the values match a coordinator-less server's bit for bit.
	plain := newTestServer(t, 64<<20, 0)
	_, want := postValue(t, plain, testRequest())
	for i := range resp.Values {
		if math.Float64bits(resp.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("fallback value[%d] = %v, plain %v", i, resp.Values[i], want.Values[i])
		}
	}
}

// TestShardResultGuard pins that a shard sub-job's result is refused by the
// valuation result endpoint with a pointer to the right one.
func TestShardResultGuard(t *testing.T) {
	srv := newTestServer(t, 64<<20, 0)
	ws := httptest.NewServer(srv.Handler())
	t.Cleanup(ws.Close)

	train := knnshapley.SynthIris(20, 51)
	test := knnshapley.SynthIris(5, 52)
	trainID := uploadBinaryTo(t, ws.URL, train)
	testID := uploadBinaryTo(t, ws.URL, test)

	body, _ := json.Marshal(wire.ShardRequest{
		TrainRef: trainID, TestRef: testID, K: 3,
		GlobalOffset: 0, GlobalN: train.N(),
	})
	resp, err := http.Post(ws.URL+"/shard/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("shard submit: HTTP %d, id %q", resp.StatusCode, st.ID)
	}

	job, ok := srv.Jobs().Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := srv.Jobs().Wait(ctx, job); err != nil {
		t.Fatal(err)
	}

	r2, err := http.Get(ws.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("valuation result endpoint returned HTTP %d for a shard job, want 409", r2.StatusCode)
	}

	r3, err := http.Get(ws.URL + "/shard/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := cluster.ReadShardReport(r3.Body)
	r3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Idx) != test.N() {
		t.Fatalf("shard report covers %d test points, want %d", len(sr.Idx), test.N())
	}
}
