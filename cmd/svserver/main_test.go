package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/jobs"
	"knnshapley/internal/server"
	"knnshapley/internal/wire"
)

// newTestServer builds a server whose job manager is torn down with the
// test and whose dataset registry lives in a per-test temp dir.
func newTestServer(t *testing.T, maxBody int64, timeout time.Duration) *server.Server {
	t.Helper()
	return newTestServerCfg(t, maxBody, timeout, jobs.Config{Workers: 2, QueueDepth: 16})
}

// libraryReport runs p over a fresh in-process session: the reference the
// server's answers are compared with.
func libraryReport(t *testing.T, train, test *knnshapley.Dataset, k int, p knnshapley.Method) *knnshapley.Report {
	t.Helper()
	v, err := knnshapley.New(train, knnshapley.WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Evaluate(context.Background(), knnshapley.Request{Params: p, Test: test})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func newTestServerCfg(t *testing.T, maxBody int64, timeout time.Duration, jcfg jobs.Config) *server.Server {
	t.Helper()
	return startServer(t, server.Config{MaxBody: maxBody, RequestTimeout: timeout, Jobs: jcfg})
}

// newCoordinatorServer is newTestServer in coordinator mode over c.
func newCoordinatorServer(t *testing.T, c *cluster.Coordinator) *server.Server {
	t.Helper()
	return startServer(t, server.Config{MaxBody: 64 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, Coordinator: c})
}

// startServer builds a server from cfg, over a per-test registry dir unless
// cfg names one, and closes it with the test.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Registry.Dir == "" {
		cfg.Registry.Dir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// Short names for the wire types the tests exchange with the server.
type (
	payload           = wire.Payload
	valueRequest      = wire.ValueRequest
	valueResponse     = wire.ValueResponse
	jobStatusResponse = wire.JobStatus
	errorResponse     = wire.ErrorResponse
)

func postValue(t *testing.T, srv *server.Server, body any) (*httptest.ResponseRecorder, valueResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/value", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var resp valueResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode response: %v (%s)", err, rec.Body.String())
		}
	}
	return rec, resp
}

func testRequest() valueRequest {
	return valueRequest{
		Algorithm: "exact",
		K:         2,
		Train: &payload{
			X:      [][]float64{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {5, 6}, {6, 5}},
			Labels: []int{0, 0, 0, 1, 1, 1},
		},
		Test: &payload{
			X:      [][]float64{{0.2, 0.1}, {5.2, 5.1}},
			Labels: []int{0, 1},
		},
	}
}

func TestValueExactMatchesLibrary(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	rec, resp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	train, _ := knnshapley.NewClassificationDataset(req.Train.X, req.Train.Labels)
	test, _ := knnshapley.NewClassificationDataset(req.Test.X, req.Test.Labels)
	want := libraryReport(t, train, test, 2, knnshapley.ExactParams{}).Values
	if len(resp.Values) != len(want) {
		t.Fatalf("%d values, want %d", len(resp.Values), len(want))
	}
	for i := range want {
		if math.Abs(resp.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("value %d = %v, want %v", i, resp.Values[i], want[i])
		}
	}
	if resp.Algorithm != "exact" || resp.N != 6 {
		t.Fatalf("metadata %+v", resp)
	}
}

func TestValueTruncatedAndMonteCarlo(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	req.Algorithm = "truncated"
	req.Params = knnshapley.TruncatedParams{Eps: 0.4}
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusOK {
		t.Fatalf("truncated status %d: %s", rec.Code, rec.Body.String())
	}
	req.Algorithm = "montecarlo"
	req.Params = knnshapley.MCParams{T: 50}
	rec, resp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("montecarlo status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Permutations == 0 {
		t.Fatal("montecarlo reported zero permutations")
	}
}

func TestValueRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	// Wrong method, and a path no route serves: the mux's own answers
	// carry the same JSON error body as every handler's.
	for _, c := range []struct {
		path   string
		status int
		allow  string
	}{{"/value", http.StatusMethodNotAllowed, "POST"}, {"/nope", http.StatusNotFound, ""}} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		var body wire.ErrorResponse
		if rec.Code != c.status || rec.Header().Get("Allow") != c.allow ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s: status %d, Allow %q, Content-Type %q", c.path,
				rec.Code, rec.Header().Get("Allow"), rec.Header().Get("Content-Type"))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("GET %s: body %q is not a JSON error: %v", c.path, rec.Body.String(), err)
		}
	}
	// Unknown algorithm.
	req := testRequest()
	req.Algorithm = "mystery"
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm status %d", rec.Code)
	}
	// Invalid K.
	req = testRequest()
	req.K = 0
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("K=0 status %d", rec.Code)
	}
	// Ragged rows.
	req = testRequest()
	req.Train.X[1] = []float64{1}
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusBadRequest {
		t.Fatalf("ragged rows status %d", rec.Code)
	}
	// Unknown metric.
	req = testRequest()
	req.Metric = "chebyshev"
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad metric status %d", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestValueSellersAndComposite(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	owners := []int{0, 0, 0, 1, 1, 1}
	req.Algorithm = "sellers"
	req.Params = knnshapley.SellerParams{Owners: owners, M: 2}
	rec, resp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sellers status %d: %s", rec.Code, rec.Body.String())
	}
	train, _ := knnshapley.NewClassificationDataset(req.Train.X, req.Train.Labels)
	test, _ := knnshapley.NewClassificationDataset(req.Test.X, req.Test.Labels)
	want := libraryReport(t, train, test, 2, knnshapley.SellerParams{Owners: owners, M: 2}).Values
	if len(resp.Values) != 2 {
		t.Fatalf("%d seller values, want 2", len(resp.Values))
	}
	for j := range want {
		if math.Abs(resp.Values[j]-want[j]) > 1e-12 {
			t.Fatalf("seller %d = %v, want %v", j, resp.Values[j], want[j])
		}
	}

	req.Algorithm = "composite"
	req.Params = knnshapley.CompositeParams{Owners: owners, M: 2}
	rec, resp = postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("composite status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Analyst == nil {
		t.Fatal("composite reply missing analyst share")
	}
	comp := libraryReport(t, train, test, 2, knnshapley.CompositeParams{Owners: owners, M: 2})
	if math.Abs(*resp.Analyst-comp.Analyst) > 1e-12 {
		t.Fatalf("analyst = %v, want %v", *resp.Analyst, comp.Analyst)
	}

	req.Algorithm = "sellersmc"
	req.Params = knnshapley.SellerMCParams{Owners: owners, M: 2,
		MCParams: knnshapley.MCParams{T: 50}}
	if rec, resp = postValue(t, srv, req); rec.Code != http.StatusOK {
		t.Fatalf("sellersmc status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Permutations == 0 {
		t.Fatal("sellersmc reported zero permutations")
	}
}

func TestValueLSHAndKD(t *testing.T) {
	srv := newTestServer(t, 16<<20, 0)
	train := knnshapley.SynthDeep(300, 3)
	test := knnshapley.SynthDeep(5, 4)
	req := valueRequest{
		Algorithm: "kd", K: 2, Params: knnshapley.KDParams{Eps: 0.25},
		Train: &payload{X: train.X, Labels: train.Labels},
		Test:  &payload{X: test.X, Labels: test.Labels},
	}
	rec, resp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("kd status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.KStar != 4 {
		t.Fatalf("kd kStar = %d, want 4", resp.KStar)
	}
	want := libraryReport(t, train, test, 2, knnshapley.TruncatedParams{Eps: 0.25}).Values
	for i := range want {
		if resp.Values[i] != want[i] {
			t.Fatalf("kd value %d = %v, want %v", i, resp.Values[i], want[i])
		}
	}

	req.Algorithm = "lsh"
	req.Params = knnshapley.LSHParams{Eps: 0.25, Delta: 0.1, Seed: 5}
	if rec, resp = postValue(t, srv, req); rec.Code != http.StatusOK {
		t.Fatalf("lsh status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.KStar != 4 || len(resp.Values) != train.N() {
		t.Fatalf("lsh report kStar=%d len=%d", resp.KStar, len(resp.Values))
	}
}

// A client that disconnects mid-valuation cancels the request context;
// the server must answer with the 499-style canceled JSON error.
func TestValueClientDisconnect(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	body := testRequest()
	body.Algorithm = "montecarlo"
	body.Params = knnshapley.MCParams{T: 1 << 30} // far more permutations than could run before the check
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest(http.MethodPost, "/value", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != server.StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, server.StatusClientClosedRequest, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("decode error body: %v (%s)", err, rec.Body.String())
	}
	if !er.Canceled || er.Error == "" {
		t.Fatalf("error body %+v, want canceled:true with a message", er)
	}
}

// -request-timeout bounds the valuation; an exceeded deadline reports 504
// with the canceled marker.
func TestValueRequestTimeout(t *testing.T) {
	srv := newTestServer(t, 1<<20, time.Nanosecond)
	body := testRequest()
	body.Algorithm = "montecarlo"
	body.Params = knnshapley.MCParams{T: 1 << 30}
	rec, _ := postValue(t, srv, body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want %d: %s", rec.Code, http.StatusGatewayTimeout, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !er.Canceled {
		t.Fatalf("error body %+v, want canceled:true", er)
	}
}

func TestValueRejectsBadOwners(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	req.Algorithm = "sellers"
	req.Params = knnshapley.SellerParams{
		Owners: []int{0, 0, 0, 1, 1, 9}, M: 2} // owner out of range
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad owners status %d", rec.Code)
	}
	req.Params = knnshapley.SellerParams{M: 2} // missing owners
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("missing owners status %d", rec.Code)
	}
}
