package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knnshapley"
	"knnshapley/internal/wire"
)

// GET /methods must list every registered method with a machine-readable
// parameter schema — the discovery surface clients build requests from.
func TestMethodsEndpoint(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	var resp wire.MethodsResponse
	if rec := do(t, srv, http.MethodGet, "/methods", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	byName := map[string]knnshapley.MethodSchema{}
	for _, m := range resp.Methods {
		byName[m.Name] = m
	}
	for _, m := range knnshapley.Methods() {
		schema, ok := byName[m.Name()]
		if !ok {
			t.Fatalf("method %q missing from /methods (got %d methods)", m.Name(), len(resp.Methods))
		}
		if schema.Description == "" {
			t.Fatalf("method %q served without description", m.Name())
		}
	}

	// Spot-check the schema detail wire clients depend on.
	if len(byName["exact"].Params) != 0 {
		t.Fatalf("exact params %+v, want none", byName["exact"].Params)
	}
	var eps *knnshapley.ParamSpec
	for i := range byName["truncated"].Params {
		if byName["truncated"].Params[i].Name == "eps" {
			eps = &byName["truncated"].Params[i]
		}
	}
	if eps == nil || !eps.Required || eps.Type != "float" || eps.Min == nil || *eps.Min != 0 || !eps.Exclusive {
		t.Fatalf("truncated eps spec %+v, want required float > 0", eps)
	}
	var bound *knnshapley.ParamSpec
	for i := range byName["montecarlo"].Params {
		if byName["montecarlo"].Params[i].Name == "bound" {
			bound = &byName["montecarlo"].Params[i]
		}
	}
	if bound == nil || len(bound.Enum) != 4 {
		t.Fatalf("montecarlo bound spec %+v, want a 4-value enum", bound)
	}
}

// A parameter the named method does not take is a 400 naming the method —
// not silently ignored, not a 500.
func TestValueRejectsMisdirectedParameter(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	body := `{"algorithm":"exact","k":2,"eps":0.1,` +
		`"train":{"x":[[0],[1]],"labels":[0,1]},"test":{"x":[[0]],"labels":[0]}}`
	req := httptest.NewRequest(http.MethodPost, "/value", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("exact")) {
		t.Fatalf("error does not name the method: %s", rec.Body.String())
	}
}

// baseline and utility ride the registry onto the wire with no server
// code of their own — the point of the declarative redesign. Their values
// must match the library bit for bit.
func TestValueBaselineAndUtilityServed(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	train, _ := knnshapley.NewClassificationDataset(req.Train.X, req.Train.Labels)
	test, _ := knnshapley.NewClassificationDataset(req.Test.X, req.Test.Labels)
	v, err := knnshapley.New(train, knnshapley.WithK(2))
	if err != nil {
		t.Fatal(err)
	}

	req.Algorithm = "baseline"
	req.Params = knnshapley.BaselineParams{Eps: 0.3, Delta: 0.3, T: 40, Seed: 2}
	rec, resp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline status %d: %s", rec.Code, rec.Body.String())
	}
	want, err := v.BaselineMonteCarlo(context.Background(), test, 0.3, 0.3, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if resp.Values[i] != want.Values[i] {
			t.Fatalf("baseline value %d = %v, want %v (bitwise)", i, resp.Values[i], want.Values[i])
		}
	}

	req.Algorithm = "utility"
	req.Params = knnshapley.UtilityParams{Subset: []int{0, 1, 2}}
	rec, resp = postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("utility status %d: %s", rec.Code, rec.Body.String())
	}
	u, err := v.Utility(context.Background(), test, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 1 || math.Abs(resp.Values[0]-u) != 0 {
		t.Fatalf("utility values %v, want [%v]", resp.Values, u)
	}
}

// A cache-hit response reports the near-zero lookup duration, not a replay
// of the original run's wall-clock time.
func TestValueCachedDurationNearZero(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusOK {
		t.Fatalf("first status %d", rec.Code)
	}
	rec, second := postValue(t, srv, req)
	if rec.Code != http.StatusOK || !second.Cached {
		t.Fatalf("second status %d cached=%v", rec.Code, second.Cached)
	}
	if second.DurationMs != 0 {
		t.Fatalf("cached durationMs = %d, want 0 (lookup, not replay)", second.DurationMs)
	}
}

// Semantically identical parameter spellings land on one cache entry: the
// canonicalized CacheKey, not the raw JSON, keys the result cache.
func TestValueCacheKeyCanonicalization(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	req.Algorithm = "montecarlo"
	req.Params = knnshapley.MCParams{T: 25} // implicit fixed bound
	if rec, _ := postValue(t, srv, req); rec.Code != http.StatusOK {
		t.Fatalf("first status %d", rec.Code)
	}
	req.Params = knnshapley.MCParams{Bound: knnshapley.Fixed, T: 25} // explicit
	rec, resp := postValue(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("second status %d", rec.Code)
	}
	if !resp.Cached {
		t.Fatal("equivalent spelling missed the result cache")
	}
}
