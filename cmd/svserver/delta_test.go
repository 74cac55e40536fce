package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
	"knnshapley/internal/wire"
)

// materialize applies one append/remove delta to rows the same way the
// registry does — surviving parent rows in order, appended rows at the
// tail — so tests can compute the expected child valuation directly.
func materialize(x [][]float64, labels []int, remove map[int]bool, addX [][]float64, addL []int) ([][]float64, []int) {
	var mx [][]float64
	var ml []int
	for i := range x {
		if !remove[i] {
			mx, ml = append(mx, x[i]), append(ml, labels[i])
		}
	}
	return append(mx, addX...), append(ml, addL...)
}

func exactValues(t *testing.T, x [][]float64, labels []int, testP *payload, k int) []float64 {
	t.Helper()
	train, err := knnshapley.NewClassificationDataset(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	test, err := knnshapley.NewClassificationDataset(testP.X, testP.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return libraryReport(t, train, test, k, knnshapley.ExactParams{}).Values
}

func requireBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v (bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestDeltaIncrementalValuation is the end-to-end delta story: upload →
// value → delta append → re-value. The incremental counters must show the
// second valuation did only O(ΔN) work (one patch, no second from-scratch
// scan), the child's values must be bit-identical to valuing its
// materialized dataset directly, and the lineage must surface in the delta
// response and GET /datasets/{id}.
func TestDeltaIncrementalValuation(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	base := testRequest()

	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", base.Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload train: %d %s", rec.Code, rec.Body.String())
	}
	trainRef := up.ID
	if rec := do(t, srv, http.MethodPost, "/datasets", base.Test, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload test: %d %s", rec.Code, rec.Body.String())
	}
	testRef := up.ID

	// Parent valuation: one from-scratch ranking build, one replay.
	rec, parentResp := postValue(t, srv, valueRequest{Algorithm: "exact", K: 2, TrainRef: trainRef, TestRef: testRef})
	if rec.Code != http.StatusOK {
		t.Fatalf("value parent: %d %s", rec.Code, rec.Body.String())
	}
	requireBits(t, "parent", parentResp.Values, exactValues(t, base.Train.X, base.Train.Labels, base.Test, 2))
	if st := srv.Incremental().Stats(); st.FromScratch != 1 || st.Patches != 0 || st.Replays != 1 {
		t.Fatalf("after parent valuation: %+v", st)
	}

	// Delta append: two new rows of the majority class.
	addX := [][]float64{{0.5, 0.4}, {5.5, 5.4}}
	addL := []int{0, 1}
	var dresp wire.DeltaResponse
	rec = do(t, srv, http.MethodPut, "/datasets/"+trainRef+"/delta",
		wire.DeltaRequest{Append: &payload{X: addX, Labels: addL}}, &dresp)
	if rec.Code != http.StatusCreated {
		t.Fatalf("delta append: %d %s", rec.Code, rec.Body.String())
	}
	if dresp.Parent != trainRef || dresp.Appended != 2 || dresp.Removed != 0 || dresp.ID == trainRef {
		t.Fatalf("delta response %+v", dresp)
	}
	if dresp.Rows != 8 {
		t.Fatalf("child rows = %d, want 8", dresp.Rows)
	}
	// The lineage is visible on the dataset's metadata surface too.
	var di wire.DatasetInfo
	if rec := do(t, srv, http.MethodGet, "/datasets/"+dresp.ID, nil, &di); rec.Code != http.StatusOK || di.Parent != trainRef {
		t.Fatalf("stat child: %d, parent %q (want %q)", rec.Code, di.Parent, trainRef)
	}

	// Child valuation: served by patching the cached parent ranking — the
	// from-scratch counter must not move.
	rec, childResp := postValue(t, srv, valueRequest{Algorithm: "exact", K: 2, TrainRef: dresp.ID, TestRef: testRef})
	if rec.Code != http.StatusOK {
		t.Fatalf("value child: %d %s", rec.Code, rec.Body.String())
	}
	cx, cl := materialize(base.Train.X, base.Train.Labels, nil, addX, addL)
	requireBits(t, "child append", childResp.Values, exactValues(t, cx, cl, base.Test, 2))
	if st := srv.Incremental().Stats(); st.FromScratch != 1 || st.Patches != 1 || st.Replays != 2 {
		t.Fatalf("after child valuation (want only delta work): %+v", st)
	}

	// The same counters are served on GET /statz.
	var statz struct {
		Incremental struct {
			FromScratch int64 `json:"from_scratch"`
			Patches     int64 `json:"patches"`
		} `json:"incremental"`
		RankCache struct {
			Entries int `json:"entries"`
		} `json:"rankCache"`
		Registry struct {
			Deltas int64 `json:"deltas"`
		} `json:"registry"`
	}
	if rec := do(t, srv, http.MethodGet, "/statz", nil, &statz); rec.Code != http.StatusOK {
		t.Fatalf("statz: %d", rec.Code)
	}
	if statz.Incremental.FromScratch != 1 || statz.Incremental.Patches != 1 ||
		statz.RankCache.Entries != 2 || statz.Registry.Deltas != 1 {
		t.Fatalf("statz %+v", statz)
	}

	// Mixed delta on the child: remove two rows (one original, one
	// appended), append one more. Still bit-identical, still no rescan.
	add2X, add2L := [][]float64{{6, 6}}, []int{1}
	var dresp2 wire.DeltaResponse
	rec = do(t, srv, http.MethodPut, "/datasets/"+dresp.ID+"/delta",
		wire.DeltaRequest{Append: &payload{X: add2X, Labels: add2L}, Remove: []int{0, 6}}, &dresp2)
	if rec.Code != http.StatusCreated {
		t.Fatalf("mixed delta: %d %s", rec.Code, rec.Body.String())
	}
	rec, mixedResp := postValue(t, srv, valueRequest{Algorithm: "exact", K: 2, TrainRef: dresp2.ID, TestRef: testRef})
	if rec.Code != http.StatusOK {
		t.Fatalf("value mixed child: %d %s", rec.Code, rec.Body.String())
	}
	mx, ml := materialize(cx, cl, map[int]bool{0: true, 6: true}, add2X, add2L)
	requireBits(t, "mixed delta", mixedResp.Values, exactValues(t, mx, ml, base.Test, 2))
	if st := srv.Incremental().Stats(); st.FromScratch != 1 || st.Patches != 2 || st.Removals != 1 {
		t.Fatalf("after mixed delta: %+v", st)
	}

	// Truncated valuation of the same child replays the same cached entry.
	req := valueRequest{Algorithm: "truncated", K: 2, TrainRef: dresp2.ID, TestRef: testRef,
		Params: knnshapley.TruncatedParams{Eps: 0.4}}
	rec, truncResp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("truncated child: %d %s", rec.Code, rec.Body.String())
	}
	trainD, _ := knnshapley.NewClassificationDataset(mx, ml)
	testD, _ := knnshapley.NewClassificationDataset(base.Test.X, base.Test.Labels)
	v, err := knnshapley.New(trainD, knnshapley.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	wantTrunc, err := v.Truncated(t.Context(), testD, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	requireBits(t, "truncated delta", truncResp.Values, wantTrunc.Values)
	if st := srv.Incremental().Stats(); st.FromScratch != 1 {
		t.Fatalf("truncated replay rescanned: %+v", st)
	}

	// Re-deriving the same child is idempotent: 200, created false.
	rec = do(t, srv, http.MethodPut, "/datasets/"+trainRef+"/delta",
		wire.DeltaRequest{Append: &payload{X: addX, Labels: addL}}, &dresp)
	if rec.Code != http.StatusOK || dresp.Created {
		t.Fatalf("re-derive: %d created=%v", rec.Code, dresp.Created)
	}
}

// TestValueOverRankBudgetRunsEngine sets the rank-cache budget below the
// request's full ranking (12 bytes × 6 training rows × 2 test points = 144
// bytes): exact and truncated valuations then run the session's engine,
// bit-identical to an in-process run, and build no ranking at all.
func TestValueOverRankBudgetRunsEngine(t *testing.T) {
	srv := startServer(t, server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, RankCacheBudget: 100})
	base := testRequest()
	train, _ := knnshapley.NewClassificationDataset(base.Train.X, base.Train.Labels)
	test, _ := knnshapley.NewClassificationDataset(base.Test.X, base.Test.Labels)
	for _, p := range []knnshapley.Method{knnshapley.ExactParams{}, knnshapley.TruncatedParams{Eps: 0.4}} {
		req := testRequest()
		req.Algorithm, req.Params = p.Name(), p
		rec, resp := postValue(t, srv, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", p.Name(), rec.Code, rec.Body.String())
		}
		requireBits(t, p.Name(), resp.Values, libraryReport(t, train, test, req.K, p).Values)
	}
	var statz struct {
		Incremental struct {
			FromScratch int64 `json:"from_scratch"`
		} `json:"incremental"`
		RankCache struct {
			Puts int64 `json:"puts"`
		} `json:"rankCache"`
	}
	if rec := do(t, srv, http.MethodGet, "/statz", nil, &statz); rec.Code != http.StatusOK {
		t.Fatalf("statz: %d", rec.Code)
	}
	if statz.Incremental.FromScratch != 0 || statz.RankCache.Puts != 0 {
		t.Fatalf("over-budget valuations built rankings: %+v", statz)
	}
}

// TestLiveHeapBoundedByBudgets answers 3,000 synchronous exact valuations,
// by ref against a 2,000×8 training set, each with a fresh 2-point inline
// test set, on a server with small budgets. Every valuation builds a
// 48 KB ranking that is never reused and a 16 KB report, and registers a
// test set. After a GC the live heap must have grown by less than the sum
// of the budgets plus a slack of 8 MiB for what no budget bounds yet: the
// 3,000 retained job records (status, envelope, cache key), the registry's
// per-dataset index and the session LRU.
func TestLiveHeapBoundedByBudgets(t *testing.T) {
	const (
		rankBudget = 4 << 20
		memBudget  = 1 << 20
		cacheSize  = 16
		trainN     = 2000
		valuations = 3000
		slack      = 8 << 20
	)
	srv := startServer(t, server.Config{
		MaxBody:         1 << 20,
		Jobs:            jobs.Config{Workers: 2, QueueDepth: 16, CacheSize: cacheSize},
		Registry:        registry.Config{MemBudget: memBudget},
		RankCacheBudget: rankBudget,
	})
	train := knnshapley.SynthMNIST(trainN, 1)
	flat := make([]float64, 0, trainN*8)
	for _, row := range train.X {
		flat = append(flat, row[:8]...)
	}
	x := make([][]float64, trainN)
	for i := range x {
		x[i] = flat[8*i : 8*i+8]
	}
	var up wire.UploadResponse
	mustDo(t, srv, http.MethodPost, "/datasets", &payload{X: x, Labels: train.Labels}, &up)
	rng := rand.New(rand.NewPCG(7, 7))
	body := func() valueRequest {
		test := &payload{X: make([][]float64, 2), Labels: []int{rng.IntN(10), rng.IntN(10)}}
		for i := range test.X {
			test.X[i] = make([]float64, 8)
			for j := range test.X[i] {
				test.X[i][j] = rng.Float64()
			}
		}
		return valueRequest{Algorithm: "exact", K: 5, TrainRef: up.ID, Test: test}
	}
	mustDo(t, srv, http.MethodPost, "/value", body(), nil) // the session and its train set

	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	read := func() (uint64, uint64) {
		runtime.GC()
		metrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Uint64()
	}
	live0, gc0 := read()
	start := time.Now()
	for range valuations {
		if rec, _ := postValue(t, srv, body()); rec.Code != http.StatusOK {
			t.Fatalf("value: %d %s", rec.Code, rec.Body.String())
		}
	}
	elapsed := time.Since(start)
	live1, gc1 := read()
	growth := int64(live1) - int64(live0)
	bound := int64(rankBudget + memBudget + cacheSize*trainN*8 + slack)
	t.Logf("%d valuations in %v, %d GC cycles: live heap %d → %d bytes (%+.1f MB, bound %.1f MB)",
		valuations, elapsed.Round(time.Millisecond), gc1-gc0-1, live0, live1, float64(growth)/1e6, float64(bound)/1e6)
	if growth >= bound {
		t.Fatalf("live heap grew %d bytes over %d valuations, want under %d (budgets %d + slack %d)",
			growth, valuations, bound, bound-slack, slack)
	}
}

// TestDeltaRejectsBadRequests pins the endpoint's error contract: controlled
// JSON errors with the right statuses, never a 500.
func TestDeltaRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	base := testRequest()
	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", base.Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}
	parent := up.ID
	row := &payload{X: [][]float64{{1, 2}}, Labels: []int{0}}

	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown parent", "/datasets/ffffffffffffffff/delta", wire.DeltaRequest{Append: row}, http.StatusNotFound},
		{"unknown append ref", "/datasets/" + parent + "/delta", wire.DeltaRequest{AppendRef: "ffffffffffffffff"}, http.StatusNotFound},
		{"both append forms", "/datasets/" + parent + "/delta", wire.DeltaRequest{Append: row, AppendRef: parent}, http.StatusBadRequest},
		{"empty delta", "/datasets/" + parent + "/delta", wire.DeltaRequest{}, http.StatusBadRequest},
		{"remove out of range", "/datasets/" + parent + "/delta", wire.DeltaRequest{Remove: []int{99}}, http.StatusUnprocessableEntity},
		{"remove duplicate", "/datasets/" + parent + "/delta", wire.DeltaRequest{Remove: []int{1, 1}}, http.StatusUnprocessableEntity},
		{"remove everything", "/datasets/" + parent + "/delta", wire.DeltaRequest{Remove: []int{0, 1, 2, 3, 4, 5}}, http.StatusUnprocessableEntity},
		{"dim mismatch", "/datasets/" + parent + "/delta",
			wire.DeltaRequest{Append: &payload{X: [][]float64{{1, 2, 3}}, Labels: []int{0}}}, http.StatusUnprocessableEntity},
		{"kind mismatch", "/datasets/" + parent + "/delta",
			wire.DeltaRequest{Append: &payload{X: [][]float64{{1, 2}}, Targets: []float64{0.5}}}, http.StatusUnprocessableEntity},
		{"unknown field", "/datasets/" + parent + "/delta", map[string]any{"appendX": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := do(t, srv, http.MethodPut, tc.path, tc.body, nil); rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
		}
	}
}

// deltaEnvelope builds the journaled envelope of one remove-only delta.
func deltaEnvelope(t *testing.T, parent string, remove []int) []byte {
	t.Helper()
	reqJSON, err := json.Marshal(wire.DeltaJob{Parent: parent, Remove: remove})
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, Kind: wire.JobKindDelta, Request: reqJSON})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// A delta journaled as submitted before a crash re-applies on replay (the
// child dataset and its lineage edge both exist afterwards), and a delta
// journaled as done has its lineage edge rebuilt so post-restart valuations
// keep the O(ΔN) path.
func TestReplayDeltaJobs(t *testing.T) {
	dir := t.TempDir()
	trainRef, _, _ := uploadTestData(t, dir)

	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	jw.Submitted("j000001", now, deltaEnvelope(t, trainRef, []int{0}))
	jw.Submitted("j000002", now.Add(time.Millisecond), deltaEnvelope(t, trainRef, []int{5}))
	jw.Finished("j000002", journal.StateDone, "", now.Add(2*time.Millisecond))
	jw.Close()

	srv, states, jw2 := replayServer(t, dir)
	if len(states) != 2 {
		t.Fatalf("replayed %d states, want 2", len(states))
	}
	srv.Replay(states)
	jw2.PurgeReplayed()

	pollUntil(t, srv, "j000001", func(st jobStatusResponse) bool { return st.Status == "done" })
	var children []string
	for _, info := range srv.Registry().List() {
		if lin, ok := srv.Registry().LineageOf(info.ID); ok {
			if lin.Parent != trainRef || len(lin.Removed) != 1 || lin.Appended != 0 {
				t.Fatalf("lineage of %s: %+v", info.ID, lin)
			}
			children = append(children, info.ID)
		}
	}
	if len(children) != 2 {
		t.Fatalf("%d delta children after replay, want 2 (queued re-applied + done lineage rebuilt): %v", len(children), children)
	}
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/j000002", nil, &st); rec.Code != http.StatusOK || st.Status != "done" {
		t.Fatalf("restored delta job: %d %+v", rec.Code, st)
	}
}

// TestDeltaJobResult: a delta rides the job queue, so GET /jobs/{id} and
// GET /jobs/{id}/result must describe it like any finished job — status
// done with every unit done, and the body PUT /datasets/{id}/delta
// answered, not a pointer to the shard-report endpoint.
func TestDeltaJobResult(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	base := testRequest()
	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", base.Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload train: %d %s", rec.Code, rec.Body.String())
	}
	var dresp wire.DeltaResponse
	rec := do(t, srv, http.MethodPut, "/datasets/"+up.ID+"/delta", wire.DeltaRequest{Remove: []int{0}}, &dresp)
	if rec.Code != http.StatusCreated {
		t.Fatalf("delta: %d %s", rec.Code, rec.Body.String())
	}
	const id = "j000001" // the server's first job
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/"+id, nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	if st.Status != "done" || st.Total != 1 || st.Done != st.Total {
		t.Errorf("delta job status %+v, want done with done == total == 1", st)
	}
	var res wire.DeltaResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/"+id+"/result", nil, &res); rec.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rec.Code, rec.Body.String())
	}
	if res.ID != dresp.ID || res.Parent != up.ID || res.Removed != 1 || res.Rows != dresp.Rows || !res.Created {
		t.Fatalf("delta job result %+v, want the PUT's %+v", res, dresp)
	}
}
