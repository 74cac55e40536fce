package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/jobs"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
	"knnshapley/internal/wire"
)

// doRaw drives one request with an arbitrary body/Content-Type through the
// route table.
func doRaw(t *testing.T, srv *server.Server, method, path, contentType string, body []byte, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// Upload lifecycle: JSON 201, idempotent re-upload 200, the binary format
// landing on the same content address, list/stat/delete round trip.
func TestDatasetEndpoints(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()

	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", req.Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.String())
	}
	if !up.Created || up.ID == "" || up.Rows != 6 || up.Dim != 2 {
		t.Fatalf("upload response %+v", up)
	}
	id := up.ID

	// Identical JSON payload: same address, not created again.
	var again wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", req.Train, &again); rec.Code != http.StatusOK {
		t.Fatalf("re-upload status %d: %s", rec.Code, rec.Body.String())
	}
	if again.Created || again.ID != id {
		t.Fatalf("re-upload response %+v, want created=false id=%s", again, id)
	}

	// The same content in the binary wire format hits the same address.
	train, err := knnshapley.NewClassificationDataset(req.Train.X, req.Train.Labels)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := knnshapley.WriteBinary(&bin, train); err != nil {
		t.Fatal(err)
	}
	var binUp wire.UploadResponse
	if rec := doRaw(t, srv, http.MethodPost, "/datasets?name=bin", "application/octet-stream", bin.Bytes(), &binUp); rec.Code != http.StatusOK {
		t.Fatalf("binary upload status %d: %s", rec.Code, rec.Body.String())
	}
	if binUp.ID != id {
		t.Fatalf("binary upload id %s, want %s (content addressing must ignore the codec)", binUp.ID, id)
	}

	var list wire.DatasetListResponse
	if rec := do(t, srv, http.MethodGet, "/datasets", nil, &list); rec.Code != http.StatusOK {
		t.Fatalf("list status %d", rec.Code)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].ID != id {
		t.Fatalf("list %+v, want exactly %s", list, id)
	}

	var info wire.DatasetInfo
	if rec := do(t, srv, http.MethodGet, "/datasets/"+id, nil, &info); rec.Code != http.StatusOK {
		t.Fatalf("stat status %d", rec.Code)
	}
	if info.Rows != 6 || info.Dim != 2 || !info.OnDisk || !info.InMemory {
		t.Fatalf("stat %+v", info)
	}

	if rec := do(t, srv, http.MethodDelete, "/datasets/"+id, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, srv, http.MethodGet, "/datasets/"+id, nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("stat after delete status %d, want 404", rec.Code)
	}
	if rec := do(t, srv, http.MethodDelete, "/datasets/"+id, nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", rec.Code)
	}
	if rec := doRaw(t, srv, http.MethodPost, "/datasets", "application/octet-stream", []byte("garbage"), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage binary upload status %d, want 400", rec.Code)
	}
}

// JSON cannot carry NaN or ±Inf, but the binary codec can. The registry
// refuses such a dataset, and the upload is the client's error, not the
// server's.
func TestBinaryUploadRejectsNonFinite(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		train, err := knnshapley.NewClassificationDataset([][]float64{{0, 0}, {1, bad}, {5, 5}}, []int{0, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		if err := knnshapley.WriteBinary(&bin, train); err != nil {
			t.Fatal(err)
		}
		rec := doRaw(t, srv, http.MethodPost, "/datasets", "application/octet-stream", bin.Bytes(), nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "non-finite") {
			t.Fatalf("upload with a %v feature: status %d %s, want 400 naming the non-finite feature", bad, rec.Code, rec.Body.String())
		}
	}
	var list wire.DatasetListResponse
	if rec := do(t, srv, http.MethodGet, "/datasets", nil, &list); rec.Code != http.StatusOK || len(list.Datasets) != 0 {
		t.Fatalf("list after rejected uploads: status %d, %d datasets", rec.Code, len(list.Datasets))
	}
}

// An upload answers with the holder count a GET right after it reads: the
// handler's own pin on the stored dataset is not a holder (0 here, where
// nothing else holds it), whether the upload is JSON, binary or a
// re-upload of the same bytes.
func TestUploadReportsRefsLikeGet(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	test, err := knnshapley.NewClassificationDataset(req.Test.X, req.Test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := knnshapley.WriteBinary(&bin, test); err != nil {
		t.Fatal(err)
	}
	uploads := []struct {
		name   string
		upload func(*wire.UploadResponse) *httptest.ResponseRecorder
		status int
	}{
		{"json", func(up *wire.UploadResponse) *httptest.ResponseRecorder {
			return do(t, srv, http.MethodPost, "/datasets", req.Train, up)
		}, http.StatusCreated},
		{"binary", func(up *wire.UploadResponse) *httptest.ResponseRecorder {
			return doRaw(t, srv, http.MethodPost, "/datasets", "application/octet-stream", bin.Bytes(), up)
		}, http.StatusCreated},
		{"binary re-upload", func(up *wire.UploadResponse) *httptest.ResponseRecorder {
			return doRaw(t, srv, http.MethodPost, "/datasets", "application/octet-stream", bin.Bytes(), up)
		}, http.StatusOK},
	}
	for _, u := range uploads {
		var up wire.UploadResponse
		if rec := u.upload(&up); rec.Code != u.status {
			t.Fatalf("%s upload: status %d, want %d: %s", u.name, rec.Code, u.status, rec.Body.String())
		}
		var info wire.DatasetInfo
		if rec := do(t, srv, http.MethodGet, "/datasets/"+up.ID, nil, &info); rec.Code != http.StatusOK {
			t.Fatalf("%s: GET /datasets/%s status %d", u.name, up.ID, rec.Code)
		}
		if up.Refs != info.Refs || up.Refs != 0 {
			t.Fatalf("%s upload answered refs %d, the GET after it %d; want both 0", u.name, up.Refs, info.Refs)
		}
	}
}

// The acceptance proof of the by-ref hot path: upload the datasets once,
// then POST /value repeatedly with bodies that carry only refs — no payload
// bytes at all. Every call must return values bit-identical to the inline
// path, /statz must show registry hits with zero misses, and the Valuer
// session built for the first call must serve all of them (valuerBuilds
// stays 1 even across result-cache misses, i.e. nothing is re-validated or
// re-fingerprinted per call).
func TestValueByRefHotPath(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	inline := testRequest()

	// Baseline: the inline path (auto-registers both payloads and echoes
	// their minted refs).
	rec, want := postValue(t, srv, inline)
	if rec.Code != http.StatusOK {
		t.Fatalf("inline status %d: %s", rec.Code, rec.Body.String())
	}
	if want.TrainRef == "" || want.TestRef == "" {
		t.Fatalf("inline response carries no refs: %+v", want)
	}

	const n = 8
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"algorithm":"exact","k":2,"trainRef":%q,"testRef":%q}`,
			want.TrainRef, want.TestRef)
		if strings.Contains(body, `"x"`) || len(body) > 200 {
			t.Fatalf("by-ref body leaks payload bytes: %s", body)
		}
		rec := doRaw(t, srv, http.MethodPost, "/value", "application/json", []byte(body), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("by-ref call %d status %d: %s", i, rec.Code, rec.Body.String())
		}
		var got valueResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("by-ref call %d: %d values, want %d", i, len(got.Values), len(want.Values))
		}
		for j := range want.Values {
			if got.Values[j] != want.Values[j] {
				t.Fatalf("by-ref call %d value %d = %v, want %v (must be bit-identical)",
					i, j, got.Values[j], want.Values[j])
			}
		}
		if got.TrainRef != want.TrainRef || got.TestRef != want.TestRef {
			t.Fatalf("by-ref call %d echoed refs %s/%s", i, got.TrainRef, got.TestRef)
		}
	}

	// A different algorithm over the same refs: result-cache miss, but the
	// session must still be warm.
	trunc := fmt.Sprintf(`{"algorithm":"truncated","k":2,"eps":0.4,"trainRef":%q,"testRef":%q}`,
		want.TrainRef, want.TestRef)
	if rec := doRaw(t, srv, http.MethodPost, "/value", "application/json", []byte(trunc), nil); rec.Code != http.StatusOK {
		t.Fatalf("truncated by-ref status %d: %s", rec.Code, rec.Body.String())
	}

	var stats struct {
		Runs         int64              `json:"runs"`
		CacheHits    int64              `json:"cacheHits"`
		ValuerBuilds int64              `json:"valuerBuilds"`
		Registry     wire.RegistryStats `json:"registry"`
	}
	if rec := do(t, srv, http.MethodGet, "/statz", nil, &stats); rec.Code != http.StatusOK {
		t.Fatalf("statz status %d", rec.Code)
	}
	// Engine ran twice (exact once, truncated once); the other n calls were
	// result-cache hits; one session served everything.
	if stats.Runs != 2 || stats.CacheHits != int64(n) || stats.ValuerBuilds != 1 {
		t.Fatalf("statz runs=%d cacheHits=%d valuerBuilds=%d, want 2/%d/1",
			stats.Runs, stats.CacheHits, stats.ValuerBuilds, n)
	}
	// Registry: 2 datasets stored by the inline call, then 2 ref hits per
	// by-ref call, all from memory.
	if stats.Registry.Datasets != 2 || stats.Registry.Puts != 2 {
		t.Fatalf("registry %+v, want 2 datasets", stats.Registry)
	}
	if wantHits := int64(2 * (n + 1)); stats.Registry.Hits != wantHits || stats.Registry.Misses != 0 {
		t.Fatalf("registry hits=%d misses=%d, want %d/0",
			stats.Registry.Hits, stats.Registry.Misses, wantHits)
	}
}

// Ref validation: unknown refs 404, ref+inline conflicts 400, missing
// datasets 400.
func TestValueRefValidation(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)

	body := `{"algorithm":"exact","k":2,"trainRef":"0123456789abcdef","testRef":"fedcba9876543210"}`
	if rec := doRaw(t, srv, http.MethodPost, "/value", "application/json", []byte(body), nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown ref status %d, want 404", rec.Code)
	}

	req := testRequest()
	req.TrainRef = "0123456789abcdef"
	raw, _ := json.Marshal(req)
	if rec := doRaw(t, srv, http.MethodPost, "/value", "application/json", raw, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("ref+inline status %d, want 400", rec.Code)
	}

	if rec := doRaw(t, srv, http.MethodPost, "/value", "application/json", []byte(`{"algorithm":"exact","k":2}`), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing datasets status %d, want 400", rec.Code)
	}
}

// Deleting a dataset while a job computes over it: the job finishes
// unharmed (its handles pin the data), the dataset vanishes from the
// registry immediately, and the terminal job releases the last pin.
func TestJobHoldsDatasetAcrossDelete(t *testing.T) {
	srv := newTestServerCfg(t, 1<<20, 0, jobs.Config{Workers: 1, QueueDepth: 4})

	slow := testRequest()
	slow.Algorithm = "montecarlo"
	slow.Params = knnshapley.MCParams{T: 1 << 30}
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", slow, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", rec.Code)
	}
	pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return s.Status == "running" })

	// Find the train dataset's id and delete it mid-run.
	var list wire.DatasetListResponse
	do(t, srv, http.MethodGet, "/datasets", nil, &list)
	if len(list.Datasets) != 2 {
		t.Fatalf("%d datasets registered, want 2", len(list.Datasets))
	}
	for _, info := range list.Datasets {
		if info.Refs == 0 {
			t.Fatalf("running job holds no ref on %s: %+v", info.ID, info)
		}
		if rec := do(t, srv, http.MethodDelete, "/datasets/"+info.ID, nil, nil); rec.Code != http.StatusNoContent {
			t.Fatalf("delete %s status %d", info.ID, rec.Code)
		}
	}
	do(t, srv, http.MethodGet, "/datasets", nil, &list)
	if len(list.Datasets) != 0 {
		t.Fatalf("deleted datasets still listed: %+v", list.Datasets)
	}

	// The job is still computing over the pinned data; cancel it cleanly.
	if rec := do(t, srv, http.MethodDelete, "/jobs/"+st.ID, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel status %d", rec.Code)
	}
	final := pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return terminalState(s.Status) })
	if final.Status != "canceled" {
		t.Fatalf("job ended %s (error %q), want canceled — a dataset delete must not break a running job",
			final.Status, final.Error)
	}
}

func terminalState(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

// A canceled-while-queued job must release its dataset pins promptly (the
// OnFinish path that bypasses the worker).
func TestQueuedCancelReleasesDatasetRefs(t *testing.T) {
	srv := newTestServerCfg(t, 1<<20, 0, jobs.Config{Workers: 1, QueueDepth: 4})

	slow := testRequest()
	slow.Algorithm = "montecarlo"
	slow.Params = knnshapley.MCParams{T: 1 << 30}
	var running jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", slow, &running); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", rec.Code)
	}
	pollUntil(t, srv, running.ID, func(s jobStatusResponse) bool { return s.Status == "running" })

	queued := testRequest() // same content → pins the same two datasets again
	queued.K = 1            // but a different session/cache key, so no cache hit
	queued.Algorithm = "montecarlo"
	queued.Params = knnshapley.MCParams{T: 1 << 30}
	var qst jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/jobs", queued, &qst); rec.Code != http.StatusAccepted {
		t.Fatalf("queued submit status %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodDelete, "/jobs/"+qst.ID, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel queued status %d", rec.Code)
	}
	pollUntil(t, srv, qst.ID, func(s jobStatusResponse) bool { return s.Status == "canceled" })

	// Both jobs share the same two datasets; the queued job's pins are gone,
	// the running job's remain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var list wire.DatasetListResponse
		do(t, srv, http.MethodGet, "/datasets", nil, &list)
		total := 0
		for _, info := range list.Datasets {
			total += info.Refs
		}
		if total == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset refs %d, want 2 (queued-cancel leaked pins): %+v", total, list.Datasets)
		}
		time.Sleep(2 * time.Millisecond)
	}
	do(t, srv, http.MethodDelete, "/jobs/"+running.ID, nil, nil)
}

// benchServer builds a server for the serving benchmarks.
func benchServer(b *testing.B) *server.Server {
	b.Helper()
	srv, err := server.New(server.Config{MaxBody: 64 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 64}, Registry: registry.Config{Dir: b.TempDir()}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// benchRequest is a medium-sized valuation: 2000×32 train, 4 test points.
func benchRequest(b *testing.B) valueRequest {
	b.Helper()
	train := knnshapley.SynthMNIST(2000, 1)
	test := knnshapley.SynthMNIST(4, 2)
	return valueRequest{
		Algorithm: "exact", K: 5,
		Train: &payload{X: train.X, Labels: train.Labels},
		Test:  &payload{X: test.X, Labels: test.Labels},
	}
}

// BenchmarkValueInline measures POST /value with the full payload shipped
// (and decoded, validated, fingerprinted) on every call. Pair with
// BenchmarkValueByRef: the delta is what the upload-once/value-many split
// saves per request; b.Logf reports the bytes on the wire.
func BenchmarkValueInline(b *testing.B) {
	srv := benchServer(b)
	raw, err := json.Marshal(benchRequest(b))
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.Handler()
	b.Logf("request bytes on wire: %d", len(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/value", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkValueByRef measures the same valuation submitted by reference
// after one upload: constant ~130-byte request bodies, no payload decode.
func BenchmarkValueByRef(b *testing.B) {
	srv := benchServer(b)
	raw, err := json.Marshal(benchRequest(b))
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.Handler()
	// Prime: one inline call registers the datasets and yields the refs.
	req := httptest.NewRequest(http.MethodPost, "/value", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("prime status %d: %s", rec.Code, rec.Body.String())
	}
	var primed valueResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &primed); err != nil {
		b.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"algorithm":"exact","k":5,"trainRef":%q,"testRef":%q}`,
		primed.TrainRef, primed.TestRef))
	b.Logf("request bytes on wire: %d", len(body))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/value", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// GET /datasets/{id} with Accept: application/octet-stream downloads the
// stored binary encoding — bit-identical to WriteBinary of the original.
func TestDatasetDownload(t *testing.T) {
	srv := newTestServer(t, 1<<20, 0)
	req := testRequest()
	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", req.Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload status %d", rec.Code)
	}

	dl := httptest.NewRequest(http.MethodGet, "/datasets/"+up.ID, nil)
	dl.Header.Set("Accept", "application/octet-stream")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, dl)
	if rec.Code != http.StatusOK {
		t.Fatalf("download status %d: %s", rec.Code, rec.Body.String())
	}
	train, err := knnshapley.NewClassificationDataset(req.Train.X, req.Train.Labels)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := knnshapley.WriteBinary(&want, train); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("downloaded %d bytes differ from canonical encoding (%d bytes)",
			rec.Body.Len(), want.Len())
	}
	// Round trip: the downloaded bytes decode to the same content address.
	got, err := knnshapley.ReadBinary(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotID := fmt.Sprintf("%016x", got.Fingerprint()); gotID != up.ID {
		t.Fatalf("downloaded content hashes to %s, want %s", gotID, up.ID)
	}

	dl = httptest.NewRequest(http.MethodGet, "/datasets/ffffffffffffffff", nil)
	dl.Header.Set("Accept", "application/octet-stream")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, dl)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown download status %d, want 404", rec.Code)
	}
}

// A dataset file that fails verification is never downloaded: with the
// dataset evicted from memory, GET /datasets/{id} with an octet-stream
// Accept answers a JSON error instead of the corrupt bytes, and the ID
// reads 404 from then on.
func TestDatasetDownloadRefusesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	train := knnshapley.SynthMNIST(20, 5)
	srv := startServer(t, server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 1, QueueDepth: 4},
		Registry: registry.Config{Dir: dir, MemBudget: 1}}) // one resident at a time
	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", &payload{X: train.X, Labels: train.Labels}, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.String())
	}
	filler := knnshapley.SynthMNIST(20, 6)
	if rec := do(t, srv, http.MethodPost, "/datasets", &payload{X: filler.X, Labels: filler.Labels}, nil); rec.Code != http.StatusCreated {
		t.Fatalf("filler upload status %d: %s", rec.Code, rec.Body.String())
	}
	path := filepath.Join(dir, up.ID+".knnsb")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, want := range []int{http.StatusInternalServerError, http.StatusNotFound} {
		dl := httptest.NewRequest(http.MethodGet, "/datasets/"+up.ID, nil)
		dl.Header.Set("Accept", "application/octet-stream")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, dl)
		var er errorResponse
		if rec.Code != want || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
			t.Fatalf("download of a corrupt file: status %d, Content-Type %q, body %d bytes; want %d with a JSON error",
				rec.Code, rec.Header().Get("Content-Type"), rec.Body.Len(), want)
		}
	}
}
