package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/jobs"
	"knnshapley/internal/server"
)

// do drives one request through the full route table (so /jobs/{id} path
// values resolve) and decodes the JSON body into out when non-nil.
func do(t *testing.T, srv *server.Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// pollUntil polls GET /jobs/{id} until the predicate holds or the deadline
// lapses, returning the final status.
func pollUntil(t *testing.T, srv *server.Server, id string, pred func(jobStatusResponse) bool) jobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st jobStatusResponse
	for time.Now().Before(deadline) {
		rec := do(t, srv, http.MethodGet, "/jobs/"+id, nil, &st)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never satisfied predicate (last: %+v)", id, st)
	return st
}

// The async happy path: enqueue, poll to done with full progress, fetch the
// result, and match it against the library computed directly.
func TestJobEndpointsLifecycle(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	var st jobStatusResponse
	rec := do(t, srv, http.MethodPost, "/jobs", req, &st)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	if st.ID == "" {
		t.Fatalf("submit returned no job id: %+v", st)
	}
	final := pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return s.Status == "done" })
	if final.Done != 2 || final.Total != 2 {
		t.Fatalf("progress %d/%d, want 2/2", final.Done, final.Total)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("done job missing timestamps: %+v", final)
	}

	var resp valueResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/"+st.ID+"/result", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", rec.Code, rec.Body.String())
	}
	train, _ := knnshapley.NewClassificationDataset(req.Train.X, req.Train.Labels)
	test, _ := knnshapley.NewClassificationDataset(req.Test.X, req.Test.Labels)
	want := libraryReport(t, train, test, 2, knnshapley.ExactParams{}).Values
	for i := range want {
		if math.Abs(resp.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("value %d = %v, want %v", i, resp.Values[i], want[i])
		}
	}
	if resp.N != 6 || resp.Algorithm != "exact" || resp.Fingerprint == "" {
		t.Fatalf("result metadata %+v", resp)
	}
}

// Unknown job ids 404 on every job endpoint; a pending job's result is a
// 409, not an error.
func TestJobEndpointsNotFoundAndConflict(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/nope"},
		{http.MethodGet, "/jobs/nope/result"},
		{http.MethodDelete, "/jobs/nope"},
	} {
		if rec := do(t, srv, probe.method, probe.path, nil, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", probe.method, probe.path, rec.Code)
		}
	}

	// A job that will grind for a long time: its result endpoint must
	// report 409 while it is queued or running.
	slow := testRequest()
	slow.Algorithm = "montecarlo"
	slow.Params = knnshapley.MCParams{T: 1 << 30}
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", slow, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/jobs/"+st.ID+"/result", nil, nil); rec.Code != http.StatusConflict {
		t.Fatalf("pending result status %d, want 409", rec.Code)
	}
	do(t, srv, http.MethodDelete, "/jobs/"+st.ID, nil, nil)
}

// DELETE mid-run ends the job canceled promptly and releases the worker:
// with a single-worker manager, a subsequent job completes. The canceled
// job's result endpoint reports the 499-style canceled error.
func TestJobCancelMidRun(t *testing.T) {
	srv := newTestServerCfg(t, 1<<20, 0, jobs.Config{Workers: 1, QueueDepth: 4})

	slow := testRequest()
	slow.Algorithm = "montecarlo"
	slow.Params = knnshapley.MCParams{T: 1 << 30} // effectively unbounded without cancellation
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", slow, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", rec.Code)
	}
	pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return s.Status == "running" })

	start := time.Now()
	var canceled jobStatusResponse
	if rec := do(t, srv, http.MethodDelete, "/jobs/"+st.ID, nil, &canceled); rec.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", rec.Code, rec.Body.String())
	}
	final := pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return s.Status == "canceled" })
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("cancellation took %v — the engine is not honoring the context", wait)
	}
	if final.Error == "" {
		t.Fatalf("canceled job carries no error: %+v", final)
	}
	var er errorResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/"+st.ID+"/result", nil, nil); rec.Code != server.StatusClientClosedRequest {
		t.Fatalf("canceled result status %d, want %d", rec.Code, server.StatusClientClosedRequest)
	} else if json.Unmarshal(rec.Body.Bytes(), &er) != nil || !er.Canceled {
		t.Fatalf("canceled result body %s", rec.Body.String())
	}

	// The single worker must be free again: a small exact job completes.
	quick := testRequest()
	var st2 jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", quick, &st2); rec.Code != http.StatusAccepted {
		t.Fatalf("post-cancel submit status %d", rec.Code)
	}
	pollUntil(t, srv, st2.ID, func(s jobStatusResponse) bool { return s.Status == "done" })
}

// An identical resubmission is served from the result cache: the job is
// born done with cacheHit set, the values are identical, and the manager's
// run counter proves the engine did not execute again. The synchronous
// /value path shares the same cache.
func TestJobCacheHitAndValuerReuse(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()

	var st jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", req, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", rec.Code)
	}
	pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return s.Status == "done" })
	var first valueResponse
	do(t, srv, http.MethodGet, "/jobs/"+st.ID+"/result", nil, &first)

	var st2 jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", req, &st2); rec.Code != http.StatusAccepted {
		t.Fatalf("resubmit status %d", rec.Code)
	}
	if st2.Status != "done" || !st2.CacheHit {
		t.Fatalf("resubmission status %+v, want instant cache hit", st2)
	}
	var second valueResponse
	do(t, srv, http.MethodGet, "/jobs/"+st2.ID+"/result", nil, &second)
	if !second.Cached {
		t.Fatalf("cached result not marked: %+v", second)
	}
	for i := range first.Values {
		if first.Values[i] != second.Values[i] {
			t.Fatalf("cached value %d = %v, want %v", i, second.Values[i], first.Values[i])
		}
	}

	// The synchronous wrapper rides the same cache...
	rec, sync := postValue(t, srv, req)
	if rec.Code != http.StatusOK || !sync.Cached {
		t.Fatalf("sync /value after async: status %d cached=%v", rec.Code, sync.Cached)
	}

	// ...and the run counter proves the engine executed exactly once for
	// the three requests, through one cached Valuer session.
	if st := srv.Jobs().Stats(); st.Runs != 1 || st.CacheHits != 2 || st.ValuerBuilds != 1 {
		t.Fatalf("stats %+v, want runs=1 cacheHits=2 valuerBuilds=1", st)
	}

	// A different algorithm over the same payload is a cache miss but
	// still reuses the session.
	trunc := testRequest()
	trunc.Algorithm = "truncated"
	trunc.Params = knnshapley.TruncatedParams{Eps: 0.4}
	if rec, _ := postValue(t, srv, trunc); rec.Code != http.StatusOK {
		t.Fatalf("truncated status %d", rec.Code)
	}
	if st := srv.Jobs().Stats(); st.Runs != 2 || st.ValuerBuilds != 1 {
		t.Fatalf("stats after truncated %+v, want runs=2 valuerBuilds=1", st)
	}
}

// The statz endpoint exposes manager counters.
func TestStatz(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	if rec, _ := postValue(t, srv, testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("value status %d", rec.Code)
	}
	var stats map[string]any
	if rec := do(t, srv, http.MethodGet, "/statz", nil, &stats); rec.Code != http.StatusOK {
		t.Fatalf("statz status %d", rec.Code)
	}
	if stats["runs"].(float64) != 1 {
		t.Fatalf("statz runs = %v, want 1", stats["runs"])
	}
}

// TestPlannerCountersPerServer: each server counts only its own algo=auto
// decisions. One auto valuation on the first of two servers in one process
// shows on its /statz and on neither counter of the second; repeating it
// is a result-cache hit, which plans nothing and so counts nothing.
func TestPlannerCountersPerServer(t *testing.T) {
	first, second := newTestServer(t, 1<<20, 0), newTestServer(t, 1<<20, 0)
	req := testRequest()
	req.Algorithm = "auto"
	for range 2 {
		if rec, _ := postValue(t, first, req); rec.Code != http.StatusOK {
			t.Fatalf("auto value: %d %s", rec.Code, rec.Body.String())
		}
	}
	planner := func(srv *server.Server) (plans int64, picks map[string]int64) {
		var st struct {
			Planner struct {
				Plans int64            `json:"plans"`
				Picks map[string]int64 `json:"picks"`
			} `json:"planner"`
		}
		mustDo(t, srv, http.MethodGet, "/statz", nil, &st)
		return st.Planner.Plans, st.Planner.Picks
	}
	plans, picks := planner(first)
	var picked int64
	for _, n := range picks {
		picked += n
	}
	if plans != 1 || picked != 1 {
		t.Fatalf("first server: %d plans, picks %v; want 1 plan and 1 pick", plans, picks)
	}
	plans, picks = planner(second)
	if plans != 0 || len(picks) != 5 {
		t.Fatalf("second server: %d plans, picks %v; want 0 plans and a pick count for each of 5 methods", plans, picks)
	}
	for m, n := range picks {
		if n != 0 {
			t.Fatalf("second server: %d %s picks, want 0", n, m)
		}
	}
}

// TestSyncValueDropsResult: POST /value answers with the values and keeps
// only the job's status, so the job's result is 410 Gone; a repeat of the
// request is still a result-cache hit, bit for bit, and an async POST /jobs
// result stays retrievable within the TTL.
func TestSyncValueDropsResult(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	rec, first := postValue(t, srv, req)
	if rec.Code != http.StatusOK || first.Cached {
		t.Fatalf("first /value: %d cached=%v %s", rec.Code, first.Cached, rec.Body.String())
	}
	const syncID = "j000001" // the server's first job: inline payloads register without one
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/"+syncID, nil, &st); rec.Code != http.StatusOK || st.Status != "done" {
		t.Fatalf("synchronous job status: %d %+v", rec.Code, st)
	}
	var gone errorResponse
	rec = do(t, srv, http.MethodGet, "/jobs/"+syncID+"/result", nil, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &gone); err != nil || rec.Code != http.StatusGone ||
		!strings.Contains(gone.Error, "synchronous response") {
		t.Fatalf("synchronous job result: %d %s, want 410 naming the synchronous response", rec.Code, rec.Body.String())
	}

	rec, again := postValue(t, srv, req)
	if rec.Code != http.StatusOK || !again.Cached {
		t.Fatalf("repeated /value: %d cached=%v, want a result-cache hit", rec.Code, again.Cached)
	}
	requireBits(t, "repeated /value", again.Values, first.Values)
	if rec := do(t, srv, http.MethodGet, "/jobs/j000002/result", nil, nil); rec.Code != http.StatusGone {
		t.Fatalf("cache-hit synchronous job result: %d, want 410", rec.Code)
	}

	// Async: a cache hit and a fresh run both keep their reports.
	fresh := testRequest()
	fresh.K = 3
	var ids []string
	for _, r := range []valueRequest{req, fresh} {
		var st jobStatusResponse
		if rec := do(t, srv, http.MethodPost, "/jobs", r, &st); rec.Code != http.StatusAccepted {
			t.Fatalf("POST /jobs: %d %s", rec.Code, rec.Body.String())
		}
		pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return s.Status == "done" })
		ids = append(ids, st.ID)
	}
	for range 2 {
		var resp valueResponse
		if rec := do(t, srv, http.MethodGet, "/jobs/"+ids[0]+"/result", nil, &resp); rec.Code != http.StatusOK || !resp.Cached {
			t.Fatalf("async cache-hit result: %d cached=%v", rec.Code, resp.Cached)
		}
		requireBits(t, "async cache hit", resp.Values, first.Values)
		if rec := do(t, srv, http.MethodGet, "/jobs/"+ids[1]+"/result", nil, &resp); rec.Code != http.StatusOK || len(resp.Values) != 6 {
			t.Fatalf("async result: %d %s", rec.Code, rec.Body.String())
		}
	}
	var statz struct {
		HeldReports     int   `json:"heldReports"`
		HeldReportBytes int64 `json:"heldReportBytes"`
	}
	do(t, srv, http.MethodGet, "/statz", nil, &statz)
	if statz.HeldReports != 2 || statz.HeldReportBytes != 2*6*8 {
		t.Fatalf("held reports %+v, want the two async jobs' 6 values each", statz)
	}
}
