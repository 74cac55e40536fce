package main

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"knnshapley/internal/jobs"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
	"knnshapley/internal/wire"
)

// indexTestServer builds a server whose index store lives in a known temp
// dir so tests can look at the .knnsi files on disk.
func indexTestServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	idxDir := filepath.Join(t.TempDir(), "indexes")
	srv, err := server.New(server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, Registry: registry.Config{Dir: t.TempDir()}, Indexes: registry.IndexConfig{Dir: idxDir}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, idxDir
}

func knnsiFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.knnsi"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// runIndexJob submits a build request and waits for the job's
// IndexJobResult.
func runIndexJob(t *testing.T, srv *server.Server, req wire.IndexRequest) wire.IndexJobResult {
	t.Helper()
	var st jobStatusResponse
	if rec := do(t, srv, http.MethodPost, "/indexes", req, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	final := pollUntil(t, srv, st.ID, func(s jobStatusResponse) bool { return terminalState(s.Status) })
	if final.Status != "done" {
		t.Fatalf("index job ended %s: %s", final.Status, final.Error)
	}
	var res wire.IndexJobResult
	if rec := do(t, srv, http.MethodGet, "/jobs/"+st.ID+"/result", nil, &res); rec.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", rec.Code, rec.Body.String())
	}
	return res
}

// Full index-job lifecycle: explicit build persists a .knnsi artifact,
// a repeat build finds the session's index already live, list/stat see the
// artifact, and deleting the dataset cascades onto its indexes.
func TestIndexJobLifecycleAndDatasetCascade(t *testing.T) {
	srv, idxDir := indexTestServer(t)

	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", testRequest().Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.String())
	}

	res := runIndexJob(t, srv, wire.IndexRequest{Dataset: up.ID, Kind: "kd", K: 2})
	if !res.Built || res.Loaded {
		t.Fatalf("first build: built=%v loaded=%v, want a fresh build", res.Built, res.Loaded)
	}
	if res.Dataset != up.ID || res.Kind != "kd" || res.ID == "" {
		t.Fatalf("result identity %+v", res.IndexInfo)
	}
	if n := len(knnsiFiles(t, idxDir)); n != 1 {
		t.Fatalf("%d .knnsi files after build, want 1", n)
	}

	// Rebuild request: the session already holds the tree, nothing happens.
	again := runIndexJob(t, srv, wire.IndexRequest{Dataset: up.ID, Kind: "kd", K: 2})
	if again.Built || again.Loaded {
		t.Fatalf("repeat build: built=%v loaded=%v, want already-live no-op", again.Built, again.Loaded)
	}

	var list wire.IndexListResponse
	do(t, srv, http.MethodGet, "/indexes", nil, &list)
	if len(list.Indexes) != 1 || list.Indexes[0].ID != res.ID {
		t.Fatalf("index list %+v, want exactly %s", list.Indexes, res.ID)
	}
	var info wire.IndexInfo
	if rec := do(t, srv, http.MethodGet, "/indexes/"+res.ID, nil, &info); rec.Code != http.StatusOK {
		t.Fatalf("stat status %d", rec.Code)
	}
	if info.Bytes <= 0 {
		t.Fatalf("stat reports %d bytes", info.Bytes)
	}

	// Dataset delete cascades onto the persisted index artifacts.
	if rec := do(t, srv, http.MethodDelete, "/datasets/"+up.ID, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("dataset delete status %d", rec.Code)
	}
	do(t, srv, http.MethodGet, "/indexes", nil, &list)
	if len(list.Indexes) != 0 {
		t.Fatalf("indexes survived dataset delete: %+v", list.Indexes)
	}
	if files := knnsiFiles(t, idxDir); len(files) != 0 {
		t.Fatalf(".knnsi files survived dataset delete: %v", files)
	}
}

// A restarted server (same dirs, fresh process state) reloads the
// persisted artifact instead of rebuilding: the second build job reports
// loaded=true and the store's load counter moves.
func TestIndexReloadAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	idxDir := filepath.Join(dataDir, "indexes")

	srv1, err := server.New(server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, Registry: registry.Config{Dir: dataDir}, Indexes: registry.IndexConfig{Dir: idxDir}})
	if err != nil {
		t.Fatal(err)
	}
	var up wire.UploadResponse
	if rec := do(t, srv1, http.MethodPost, "/datasets", testRequest().Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.String())
	}
	first := runIndexJob(t, srv1, wire.IndexRequest{Dataset: up.ID, Kind: "lsh", K: 2, Eps: 0.4, Delta: 0.2, Seed: 7})
	if !first.Built {
		t.Fatalf("first build %+v, want built", first)
	}
	srv1.Close()

	srv2, err := server.New(server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, Registry: registry.Config{Dir: dataDir}, Indexes: registry.IndexConfig{Dir: idxDir}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	if got := srv2.Indexes().Stats().Indexes; got != 1 {
		t.Fatalf("restarted store recovered %d indexes, want 1", got)
	}
	second := runIndexJob(t, srv2, wire.IndexRequest{Dataset: up.ID, Kind: "lsh", K: 2, Eps: 0.4, Delta: 0.2, Seed: 7})
	if second.Built || !second.Loaded {
		t.Fatalf("post-restart build: built=%v loaded=%v, want a pure reload", second.Built, second.Loaded)
	}
	if loads := srv2.Indexes().Stats().Loads; loads == 0 {
		t.Fatal("store load counter did not move on reload")
	}
}

func TestIndexSubmitValidation(t *testing.T) {
	srv, _ := indexTestServer(t)

	cases := []struct {
		name string
		req  wire.IndexRequest
		code int
	}{
		{"unknown kind", wire.IndexRequest{Dataset: "0123456789abcdef", Kind: "ball"}, http.StatusBadRequest},
		{"missing dataset", wire.IndexRequest{Dataset: "0123456789abcdef", Kind: "kd"}, http.StatusNotFound},
		{"bad eps", wire.IndexRequest{Dataset: "0123456789abcdef", Kind: "kd", Eps: -1}, http.StatusUnprocessableEntity},
		{"bad delta", wire.IndexRequest{Dataset: "0123456789abcdef", Kind: "lsh", Delta: 1.5}, http.StatusUnprocessableEntity},
		{"bad k", wire.IndexRequest{Dataset: "0123456789abcdef", Kind: "kd", K: -3}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if rec := do(t, srv, http.MethodPost, "/indexes", tc.req, nil); rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
	}

	if rec := do(t, srv, http.MethodDelete, "/indexes/nope.kd.0000000000000000", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("delete of unknown index: status %d, want 404", rec.Code)
	}
}

// Guard against the store directory not being created until first use:
// a fresh server must recover cleanly from a pre-populated index dir even
// when one file is truncated garbage.
func TestIndexStoreSurvivesCorruptFile(t *testing.T) {
	dataDir := t.TempDir()
	idxDir := filepath.Join(dataDir, "indexes")
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(idxDir, "junk.kd.0000000000000000.knnsi"), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 1, QueueDepth: 4}, Registry: registry.Config{Dir: dataDir}, Indexes: registry.IndexConfig{Dir: idxDir}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if got := srv.Indexes().Stats().Indexes; got != 0 {
		t.Fatalf("corrupt file counted as %d live indexes", got)
	}
}
