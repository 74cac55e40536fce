package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knnshapley/internal/jobs"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
)

// FuzzDecodeValueRequest throws arbitrary bytes at the two JSON-decoding
// endpoints. The contract under test: malformed or hostile bodies must come
// back as a controlled JSON error — never a panic, never a 500. Bodies that
// happen to decode into a valid tiny valuation are fine too; the per-job
// timeout and the bounded queue keep fuzzer-crafted monster requests
// (montecarlo with a 2^30 budget, say) from wedging the worker pool — such
// a request legitimately ends in a deliberate 504.
func FuzzDecodeValueRequest(f *testing.F) {
	// A valid request, so the fuzzer starts near the interesting surface.
	f.Add([]byte(`{"algorithm":"exact","k":2,` +
		`"train":{"x":[[0,0],[1,0],[0,1],[5,5]],"labels":[0,0,0,1]},` +
		`"test":{"x":[[0.2,0.1]],"labels":[0]}}`))
	f.Add([]byte(`{"algorithm":"montecarlo","k":1,"t":1073741824,` +
		`"train":{"x":[[0],[1]],"labels":[0,1]},"test":{"x":[[0]],"labels":[0]}}`))
	f.Add([]byte(`{"algorithm":"exact","k":2,"train":{"x":[[0,0],[1]],"labels":[0,0]}}`)) // ragged
	f.Add([]byte(`{"k":-9223372036854775808}`))
	f.Add([]byte(`{"train":{"x":[[1e308,1e308]],"labels":[0],"targets":[1]}}`)) // both responses
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"algorithm":"exact","unknown":true}`))
	// By-reference requests: unknown refs, malformed refs, ref+inline mix.
	f.Add([]byte(`{"algorithm":"exact","k":1,"trainRef":"0123456789abcdef","testRef":"fedcba9876543210"}`))
	f.Add([]byte(`{"algorithm":"exact","k":1,"trainRef":"../../etc/passwd","test":{"x":[[0]],"labels":[0]}}`))
	f.Add([]byte(`{"algorithm":"exact","k":1,` +
		`"train":{"x":[[0],[1]],"labels":[0,1]},"trainRef":"0123456789abcdef",` +
		`"test":{"x":[[0]],"labels":[0]}}`))

	srv, err := server.New(server.Config{MaxBody: 1 << 20, RequestTimeout: 100 * time.Millisecond, Jobs: jobs.Config{
		Workers:    1,
		QueueDepth: 4,
		JobTimeout: 100 * time.Millisecond,
		TTL:        time.Second,
	}, Registry: registry.Config{Dir: f.TempDir()}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	mux := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/value", "/jobs"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req) // any panic fails the fuzz run
			switch rec.Code {
			case http.StatusGatewayTimeout, http.StatusServiceUnavailable:
				// Deliberate backpressure/timeout responses, not bugs.
			default:
				if rec.Code >= http.StatusInternalServerError {
					t.Fatalf("POST %s with %q: status %d: %s", path, body, rec.Code, rec.Body.String())
				}
			}
		}
	})
}

// FuzzDecodeDeltaRequest throws arbitrary bytes at PUT /datasets/{id}/delta
// against both a held parent and an unknown one. Same contract as the
// valuation fuzz: malformed, hostile or merely invalid bodies come back as
// controlled JSON errors — never a panic, never a 500 — and nothing a body
// says can corrupt the registry (content addressing makes every successful
// application a well-formed dataset).
func FuzzDecodeDeltaRequest(f *testing.F) {
	f.Add([]byte(`{"append":{"x":[[9,9]],"labels":[1]}}`))
	f.Add([]byte(`{"append":{"x":[[9,9]],"labels":[1]},"remove":[0,3]}`))
	f.Add([]byte(`{"remove":[5,4,3,2,1,0]}`))            // removes everything
	f.Add([]byte(`{"remove":[-1,9223372036854775807]}`)) // out of range both ways
	f.Add([]byte(`{"remove":[1,1,1]}`))
	f.Add([]byte(`{"append":{"x":[[1,2,3]],"labels":[0]}}`))  // dim mismatch
	f.Add([]byte(`{"append":{"x":[[1,2]],"targets":[0.5]}}`)) // kind mismatch
	f.Add([]byte(`{"append":{"x":[[1]],"labels":[0,1]}}`))    // ragged
	f.Add([]byte(`{"appendRef":"0123456789abcdef"}`))         // unknown ref
	f.Add([]byte(`{"append":{"x":[]},"appendRef":"00"}`))     // both forms
	f.Add([]byte(`{}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"unknown":true}`))

	srv, err := server.New(server.Config{MaxBody: 1 << 20, RequestTimeout: 100 * time.Millisecond, Jobs: jobs.Config{
		Workers:    1,
		QueueDepth: 4,
		JobTimeout: 100 * time.Millisecond,
		TTL:        time.Second,
	}, Registry: registry.Config{Dir: f.TempDir()}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	mux := srv.Handler()

	// A real parent so fuzz-crafted deltas can reach the application layer,
	// not just the decoder.
	parentBody := []byte(`{"x":[[0,0],[1,0],[0,1],[5,5],[5,6],[6,5]],"labels":[0,0,0,1,1,1]}`)
	up := httptest.NewRequest(http.MethodPost, "/datasets", bytes.NewReader(parentBody))
	up.Header.Set("Content-Type", "application/json")
	upRec := httptest.NewRecorder()
	mux.ServeHTTP(upRec, up)
	if upRec.Code != http.StatusCreated {
		f.Fatalf("seed parent upload: %d %s", upRec.Code, upRec.Body.String())
	}
	var upResp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(upRec.Body.Bytes(), &upResp); err != nil || upResp.ID == "" {
		f.Fatalf("seed parent id: %v (%s)", err, upRec.Body.String())
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, id := range []string{upResp.ID, "ffffffffffffffff"} {
			req := httptest.NewRequest(http.MethodPut, "/datasets/"+id+"/delta", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req) // any panic fails the fuzz run
			switch rec.Code {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Deliberate backpressure responses, not bugs.
			default:
				if rec.Code >= http.StatusInternalServerError {
					t.Fatalf("PUT delta on %s with %q: status %d: %s", id, body, rec.Code, rec.Body.String())
				}
			}
		}
	})
}
