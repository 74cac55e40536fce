package cluster_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/jobs"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
)

// testWorker is one in-process peer: a real svserver (internal/server)
// behind an httptest server, optionally wrapped.
type testWorker struct {
	srv *httptest.Server
}

func newTestWorker(t *testing.T, wrap func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	peer, err := server.New(server.Config{
		MaxBody:  64 << 20,
		Jobs:     jobs.Config{Workers: 2},
		Registry: registry.Config{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := peer.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); peer.Close() })
	return &testWorker{srv: srv}
}

func testConfig(urls []string) cluster.Config {
	return cluster.Config{
		Peers:          urls,
		HealthInterval: -1, // probe on demand only; tests drive health explicitly
		PollInterval:   5 * time.Millisecond,
		Backoff:        5 * time.Millisecond,
	}
}

func requireBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value[%d] = %v (bits %#x), want %v (bits %#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestClusterEvaluateBitIdentical is the tentpole equivalence over real HTTP:
// three workers, both methods — distributed values must
// be bit-identical to the local Valuer's, and a second valuation must reuse
// the datasets already pushed (content addressing makes pushes idempotent).
func TestClusterEvaluateBitIdentical(t *testing.T) {
	train := knnshapley.SynthIris(151, 3)
	test := knnshapley.SynthIris(37, 4)
	v, err := knnshapley.New(train, knnshapley.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	localExact, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.2
	localTrunc, err := v.Truncated(context.Background(), test, eps)
	if err != nil {
		t.Fatal(err)
	}

	var pushes atomic.Int64
	countPushes := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/datasets" {
				pushes.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, newTestWorker(t, countPushes).srv.URL)
	}
	c := cluster.New(testConfig(urls))
	defer c.Close()

	for _, tc := range []struct {
		method string
		want   []float64
	}{
		{"exact", localExact.Values},
		{"truncated", localTrunc.Values},
	} {
		rep, err := c.Evaluate(context.Background(), cluster.Request{
			Train: train, Test: test, Method: tc.method, Eps: eps, K: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		requireBitIdentical(t, tc.method, rep.Values, tc.want)
		if rep.TestPoints != test.N() {
			t.Fatalf("report says %d test points, want %d", rep.TestPoints, test.N())
		}
	}

	// Re-running the first valuation must push nothing new.
	before := pushes.Load()
	if _, err := c.Evaluate(context.Background(), cluster.Request{
		Train: train, Test: test, Method: "exact", K: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if after := pushes.Load(); after != before {
		t.Fatalf("repeat valuation pushed %d datasets; content addressing should have reused them", after-before)
	}

	st := c.Statz()
	if st.Valuations != 3 {
		t.Fatalf("statz valuations = %d, want 3", st.Valuations)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("statz lists %d peers, want 3", len(st.Peers))
	}
	if c.BytesOnWire() == 0 {
		t.Fatal("no wire bytes accounted")
	}
}

// TestClusterSurvivesWorkerKilledMidJob kills the first worker that accepts a
// shard sub-job right after it accepts it; the coordinator must reassign the
// shard to another owner and still produce bit-identical values.
func TestClusterSurvivesWorkerKilledMidJob(t *testing.T) {
	train := knnshapley.SynthIris(120, 11)
	test := knnshapley.SynthIris(23, 12)
	v, err := knnshapley.New(train, knnshapley.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	local, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}

	var workers []*testWorker
	var kill sync.Once
	killed := make(chan struct{})
	doom := func(idx int) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				if r.Method == http.MethodPost && r.URL.Path == "/shard/jobs" {
					kill.Do(func() {
						srv := workers[idx].srv
						go func() {
							srv.CloseClientConnections()
							srv.Close()
							close(killed)
						}()
					})
				}
			})
		}
	}
	var urls []string
	for i := 0; i < 3; i++ {
		workers = append(workers, newTestWorker(t, doom(i)))
		urls = append(urls, workers[i].srv.URL)
	}
	c := cluster.New(testConfig(urls))
	defer c.Close()

	rep, err := c.Evaluate(context.Background(), cluster.Request{
		Train: train, Test: test, Method: "exact", K: 3,
	})
	if err != nil {
		t.Fatalf("evaluate with a worker killed mid-job: %v", err)
	}
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("no worker was ever killed; the failure path was not exercised")
	}
	requireBitIdentical(t, "after worker kill", rep.Values, local.Values)
	if c.Statz().Reassignments == 0 {
		t.Fatal("no reassignment recorded though a worker died mid-job")
	}
}

// TestClusterAllPeersDown pins the degraded path: every peer unreachable
// means ErrNoPeers before any shard work, which the serving layer turns into
// the single-node fallback.
func TestClusterAllPeersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	c := cluster.New(testConfig([]string{url}))
	defer c.Close()

	train := knnshapley.SynthIris(30, 1)
	test := knnshapley.SynthIris(5, 2)
	_, err := c.Evaluate(context.Background(), cluster.Request{Train: train, Test: test, Method: "exact", K: 3})
	if !errors.Is(err, cluster.ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

// TestClusterCancelPropagates blocks the first status poll server-side and
// cancels the valuation; Evaluate must return the context error promptly
// instead of waiting out the blocked poll.
func TestClusterCancelPropagates(t *testing.T) {
	polled := make(chan struct{})
	var once sync.Once
	block := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/") {
				once.Do(func() { close(polled) })
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	tw := newTestWorker(t, block)
	c := cluster.New(testConfig([]string{tw.srv.URL}))
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		train := knnshapley.SynthIris(60, 5)
		test := knnshapley.SynthIris(11, 6)
		_, err := c.Evaluate(ctx, cluster.Request{Train: train, Test: test, Method: "exact", K: 3})
		done <- err
	}()
	select {
	case <-polled:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never polled the shard job")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Evaluate did not return after cancellation")
	}
}

// TestClusterProgressReported checks that a progress callback on the
// valuation context observes completion through the distributed path.
func TestClusterProgressReported(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, newTestWorker(t, nil).srv.URL)
	}
	c := cluster.New(testConfig(urls))
	defer c.Close()

	train := knnshapley.SynthIris(80, 21)
	test := knnshapley.SynthIris(17, 22)
	var lastDone, lastTotal atomic.Int64
	ctx := knnshapley.ContextWithProgress(context.Background(), func(done, total int) {
		lastDone.Store(int64(done))
		lastTotal.Store(int64(total))
	})
	if _, err := c.Evaluate(ctx, cluster.Request{Train: train, Test: test, Method: "exact", K: 3}); err != nil {
		t.Fatal(err)
	}
	if lastTotal.Load() != int64(test.N()) {
		t.Fatalf("progress total = %d, want %d", lastTotal.Load(), test.N())
	}
}
