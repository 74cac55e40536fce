package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"knnshapley"
)

// waitState polls until the job reaches want or the deadline lapses.
func waitState(t *testing.T, j *Job, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.Snapshot(); s.State == want {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID(), want, j.Snapshot().State)
	return Snapshot{}
}

// blockingSpec returns a job that signals on started and then holds a worker
// until release is closed (or its context is canceled).
func blockingSpec(started chan<- struct{}, release <-chan struct{}) Spec {
	return Spec{Run: func(ctx context.Context) (*knnshapley.Report, error) {
		if started != nil {
			close(started)
		}
		select {
		case <-release:
			return &knnshapley.Report{Method: "block"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
}

func smallData(t *testing.T) (*knnshapley.Dataset, *knnshapley.Dataset) {
	t.Helper()
	train, err := knnshapley.NewClassificationDataset(
		[][]float64{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {5, 6}, {6, 5}},
		[]int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	test, err := knnshapley.NewClassificationDataset(
		[][]float64{{0.2, 0.1}, {5.2, 5.1}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// The happy path: a real Exact valuation submitted as a job reaches done,
// reports full progress, and its values match the direct computation.
func TestJobLifecycle(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	train, test := smallData(t)
	v, err := knnshapley.New(train, knnshapley.WithK(2), knnshapley.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(Spec{
		CacheKey:   "lifecycle",
		TotalUnits: test.N(),
		Run:        func(ctx context.Context) (*knnshapley.Report, error) { return v.Exact(ctx, test) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Wait(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, job, StateDone)
	if s.Done != test.N() || s.Total != test.N() {
		t.Fatalf("progress %d/%d, want %d/%d", s.Done, s.Total, test.N(), test.N())
	}
	if s.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	want, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if rep.Values[i] != want.Values[i] {
			t.Fatalf("value %d = %v, want %v", i, rep.Values[i], want.Values[i])
		}
	}
	if rep.Fingerprint == 0 || rep.Fingerprint != v.Fingerprint() {
		t.Fatalf("report fingerprint %x, want %x", rep.Fingerprint, v.Fingerprint())
	}
}

// A second submission with the same CacheKey is answered from the result
// cache: it is done at Submit time, carries the identical Report, and the
// engine (Spec.Run) does not execute again.
func TestResultCacheHit(t *testing.T) {
	// A frozen manager clock makes the hit's lookup Duration exactly zero,
	// while the original run's Duration comes from the session's own
	// wall clock and so stays positive.
	frozen := time.Unix(1700000000, 0)
	m := New(Config{Workers: 1, Now: func() time.Time { return frozen }})
	defer m.Close()
	train, test := smallData(t)
	v, err := knnshapley.New(train, knnshapley.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		CacheKey:   "hit-me",
		TotalUnits: test.N(),
		Run:        func(ctx context.Context) (*knnshapley.Report, error) { return v.Exact(ctx, test) },
	}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	firstRep, err := m.Wait(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := second.Snapshot()
	if s.State != StateDone || !s.CacheHit {
		t.Fatalf("cached job state %s cacheHit=%v, want done from cache", s.State, s.CacheHit)
	}
	secondRep, err := second.Report()
	if err != nil {
		t.Fatal(err)
	}
	// The hit is a marked deep copy of the cached report: identical values
	// in a distinct backing array (so a caller mutating its copy cannot
	// corrupt the cached entry), CacheHit set, and the lookup duration
	// instead of the original run's wall-clock time.
	if len(secondRep.Values) != len(firstRep.Values) {
		t.Fatalf("cache hit has %d values, want %d", len(secondRep.Values), len(firstRep.Values))
	}
	for i := range firstRep.Values {
		if secondRep.Values[i] != firstRep.Values[i] {
			t.Fatalf("cache hit value %d = %g, want %g", i, secondRep.Values[i], firstRep.Values[i])
		}
	}
	if &secondRep.Values[0] == &firstRep.Values[0] {
		t.Fatal("cache hit shares its Values backing array with the cached report")
	}
	if !secondRep.CacheHit {
		t.Fatal("cached report not marked CacheHit")
	}
	if secondRep.Duration != 0 {
		t.Fatalf("cached Duration %v, want 0 on a frozen clock", secondRep.Duration)
	}
	if secondRep.Duration >= firstRep.Duration {
		t.Fatalf("cached Duration %v not below the original run's %v", secondRep.Duration, firstRep.Duration)
	}
	if firstRep.CacheHit {
		t.Fatal("cache hit mutated the cached report itself")
	}
	if st := m.Stats(); st.Runs != 1 || st.CacheHits != 1 {
		t.Fatalf("stats runs=%d hits=%d, want 1 and 1", st.Runs, st.CacheHits)
	}
	// A RunAny job (a delta, an index build, a shard) is not a valuation
	// and leaves Runs alone.
	other, err := m.Submit(Spec{RunAny: func(ctx context.Context) (any, error) { return 1, nil }})
	if err != nil {
		t.Fatal(err)
	}
	<-other.Done()
	if st := m.Stats(); st.Runs != 1 {
		t.Fatalf("stats runs=%d after a RunAny job, want 1", st.Runs)
	}
}

// Canceling a queued job terminates it without it ever holding a worker,
// and canceling a running job releases the worker promptly for new work.
func TestCancelQueuedAndRunning(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	running, err := m.Submit(blockingSpec(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	queued, err := m.Submit(blockingSpec(nil, release))
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := m.Cancel(queued.ID()); !ok || j.Snapshot().State != StateCanceled {
		t.Fatalf("queued cancel: ok=%v state=%s", ok, j.Snapshot().State)
	}

	if _, ok := m.Cancel(running.ID()); !ok {
		t.Fatal("running cancel: job not found")
	}
	s := waitState(t, running, StateCanceled)
	if s.Err == "" {
		t.Fatal("canceled job carries no error message")
	}
	if _, err := running.Report(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job Report error = %v, want context.Canceled", err)
	}

	// The worker must be free again: a fresh job completes.
	after, err := m.Submit(Spec{Run: func(ctx context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{Method: "after"}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := m.Wait(context.Background(), after); err != nil || rep.Method != "after" {
		t.Fatalf("post-cancel job: rep=%+v err=%v", rep, err)
	}
	if _, ok := m.Cancel("j999999"); ok {
		t.Fatal("cancel of unknown id reported success")
	}
}

// With one worker busy and the queue at capacity, Submit applies
// backpressure instead of queueing unboundedly.
func TestQueueFull(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit(blockingSpec(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(blockingSpec(nil, release)); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := m.Submit(blockingSpec(nil, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit error = %v, want ErrQueueFull", err)
	}
}

// JobTimeout bounds a runaway job; exceeding it is a failure, not a
// requested cancellation.
func TestJobTimeout(t *testing.T) {
	m := New(Config{Workers: 1, JobTimeout: 5 * time.Millisecond})
	defer m.Close()
	job, err := m.Submit(blockingSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateFailed)
	if _, err := job.Report(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job error = %v, want deadline exceeded", err)
	}
}

// Terminal jobs are retained for TTL and swept afterwards; the result cache
// is unaffected by the sweep.
func TestTTLRetention(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	m := New(Config{Workers: 1, TTL: time.Minute, Now: clock})
	defer m.Close()
	job, err := m.Submit(Spec{CacheKey: "ttl", Run: func(ctx context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{Method: "ttl"}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(job.ID()); !ok {
		t.Fatal("job gone before TTL")
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, ok := m.Get(job.ID()); ok {
		t.Fatal("job retained beyond TTL")
	}
	// The cached result still answers a resubmission.
	again, err := m.Submit(Spec{CacheKey: "ttl", Run: func(ctx context.Context) (*knnshapley.Report, error) {
		t.Error("cache miss after TTL sweep")
		return nil, errors.New("unreachable")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s := again.Snapshot(); !s.CacheHit {
		t.Fatalf("resubmission state %+v, want cache hit", s)
	}
}

// The session cache builds each (fingerprint, options) Valuer exactly once,
// evicts least-recently-used entries, and caches build errors.
func TestValuerCache(t *testing.T) {
	m := New(Config{Workers: 1, ValuerCacheSize: 2})
	defer m.Close()
	train, _ := smallData(t)
	builds := 0
	build := func() (*knnshapley.Valuer, error) {
		builds++
		return knnshapley.New(train, knnshapley.WithK(2))
	}
	a1, err := m.Valuer("a", build)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Valuer("a", build)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || builds != 1 {
		t.Fatalf("same key built %d sessions", builds)
	}
	if st := m.Stats(); st.ValuerBuilds != 1 {
		t.Fatalf("stats valuerBuilds = %d, want 1", st.ValuerBuilds)
	}
	if _, err := m.Valuer("b", build); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Valuer("c", build); err != nil {
		t.Fatal(err)
	}
	// "a" was least recently used and must have been evicted: a rebuild.
	if _, err := m.Valuer("a", build); err != nil {
		t.Fatal(err)
	}
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 (a, b, c, a-again)", builds)
	}
	// Errors are cached per key too.
	fails := 0
	bad := func() (*knnshapley.Valuer, error) { fails++; return nil, errors.New("boom") }
	if _, err := m.Valuer("bad", bad); err == nil {
		t.Fatal("bad build reported no error")
	}
	if _, err := m.Valuer("bad", bad); err == nil || fails != 1 {
		t.Fatalf("cached error: err=%v fails=%d", err, fails)
	}
}

// Close cancels running work, terminates queued jobs and rejects new ones.
func TestClose(t *testing.T) {
	m := New(Config{Workers: 1})
	started := make(chan struct{})
	running, err := m.Submit(blockingSpec(started, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(blockingSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if s := running.Snapshot().State; s != StateCanceled {
		t.Fatalf("running job state after Close = %s", s)
	}
	if s := queued.Snapshot().State; s != StateCanceled {
		t.Fatalf("queued job state after Close = %s", s)
	}
	if _, err := m.Submit(blockingSpec(nil, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Submit error = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// Hammer the manager from many goroutines to give the race detector
// something to chew on: concurrent submits sharing one cache key, polls,
// cancels, result drops and stats.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	m := New(Config{Workers: 4, QueueDepth: 256})
	defer m.Close()
	train, test := smallData(t)
	v, err := knnshapley.New(train, knnshapley.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				job, err := m.Submit(Spec{
					CacheKey:   "shared",
					TotalUnits: test.N(),
					Run:        func(ctx context.Context) (*knnshapley.Report, error) { return v.Exact(ctx, test) },
				})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				job.Snapshot()
				if g%2 == 0 {
					if _, err := m.Wait(context.Background(), job); err != nil && !errors.Is(err, context.Canceled) {
						t.Error(err)
						return
					}
					job.DropResult()
				} else {
					m.Cancel(job.ID())
				}
				m.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// OnFinish fires exactly once on every path to a terminal state: normal
// completion, failure, result-cache hit, cancellation while queued, and a
// Submit rejected by a full queue.
func TestOnFinishFiresOnEveryTerminalPath(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()

	counted := func(n *atomic.Int64) func() { return func() { n.Add(1) } }

	// Normal completion (and, reused below, the cache-hit path).
	var done atomic.Int64
	spec := Spec{
		CacheKey: "onfinish-done",
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{Method: "noop"}, nil
		},
		OnFinish: counted(&done),
	}
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	if got := done.Load(); got != 1 {
		t.Fatalf("OnFinish ran %d times after completion, want 1", got)
	}

	// Cache hit: terminal at Submit, hook fires before Submit returns.
	var hit atomic.Int64
	spec.OnFinish = counted(&hit)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if got := hit.Load(); got != 1 {
		t.Fatalf("OnFinish ran %d times on a cache hit, want 1", got)
	}

	// Failure.
	var failed atomic.Int64
	fj, err := m.Submit(Spec{
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return nil, errors.New("boom")
		},
		OnFinish: counted(&failed),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, fj, StateFailed)
	if got := failed.Load(); got != 1 {
		t.Fatalf("OnFinish ran %d times after failure, want 1", got)
	}

	// Cancel-while-queued and queue-full rejection: block the one worker,
	// fill the one queue slot, then overflow it.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := m.Submit(blockingSpec(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued atomic.Int64
	qs := blockingSpec(nil, release)
	qs.OnFinish = counted(&queued)
	qj, err := m.Submit(qs)
	if err != nil {
		t.Fatal(err)
	}
	var rejected atomic.Int64
	rs := blockingSpec(nil, release)
	rs.OnFinish = counted(&rejected)
	if _, err := m.Submit(rs); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit err %v, want ErrQueueFull", err)
	}
	if got := rejected.Load(); got != 1 {
		t.Fatalf("OnFinish ran %d times on rejection, want 1", got)
	}
	if _, ok := m.Cancel(qj.ID()); !ok {
		t.Fatal("cancel unknown job")
	}
	waitState(t, qj, StateCanceled)
	if got := queued.Load(); got != 1 {
		t.Fatalf("OnFinish ran %d times on queued-cancel, want 1", got)
	}
	close(release)
	waitState(t, blocker, StateDone)

	// Double-cancel and late cancel must not re-fire any hook.
	m.Cancel(qj.ID())
	m.Cancel(job.ID())
	if queued.Load() != 1 || done.Load() != 1 {
		t.Fatal("a second Cancel re-fired OnFinish")
	}
}

// OnFinish fires when a running job is canceled mid-flight, after the run
// unwinds.
func TestOnFinishOnRunningCancel(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	var finished atomic.Int64
	spec := blockingSpec(started, release)
	spec.OnFinish = func() { finished.Add(1) }
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if finished.Load() != 0 {
		t.Fatal("OnFinish fired before the job finished")
	}
	if _, ok := m.Cancel(job.ID()); !ok {
		t.Fatal("cancel failed")
	}
	waitState(t, job, StateCanceled)
	// The hook runs on the worker goroutine after the run unwinds; give it
	// a moment.
	deadline := time.Now().Add(5 * time.Second)
	for finished.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := finished.Load(); got != 1 {
		t.Fatalf("OnFinish ran %d times after running-cancel, want 1", got)
	}
}

// The background sweeper releases expired terminal jobs on an idle manager
// — no Submit or Get required. Expiry decisions use the injected clock; the
// ticker runs on the real one.
func TestBackgroundSweeper(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	m := New(Config{
		Workers:       1,
		TTL:           time.Minute,
		SweepInterval: 2 * time.Millisecond,
		Now:           clock,
	})
	defer m.Close()
	job, err := m.Submit(Spec{Run: func(ctx context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{Method: "sweep"}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	// Still inside TTL: the sweeper must leave it alone. (Stats does not
	// sweep, so it observes without interfering.)
	time.Sleep(10 * time.Millisecond)
	if st := m.Stats(); st.Jobs != 1 {
		t.Fatalf("%d jobs retained inside TTL, want 1", st.Jobs)
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Stats().Jobs == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("expired job still retained after %v of background sweeping", 5*time.Second)
}

// The mutation-then-rehit regression: a caller mutating its cache-hit copy
// must not corrupt the cached entry later hits are served from.
func TestCacheHitMutationDoesNotCorruptCache(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	spec := Spec{
		CacheKey: "mutate-me",
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{Method: "m", Values: []float64{1, 2, 3}}, nil
		},
	}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), first); err != nil {
		t.Fatal(err)
	}

	second, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	secondRep, err := second.Report()
	if err != nil {
		t.Fatal(err)
	}
	secondRep.Values[0] = -999 // a badly behaved caller

	third, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	thirdRep, err := third.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3}; thirdRep.Values[0] != want[0] ||
		thirdRep.Values[1] != want[1] || thirdRep.Values[2] != want[2] {
		t.Fatalf("third hit saw %v: the second hit's mutation reached the cache", thirdRep.Values)
	}
}

// recordingJournal captures the Journal hook calls for assertion.
type recordingJournal struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingJournal) add(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recordingJournal) Submitted(id string, at time.Time, envelope []byte) {
	r.add("submit:" + id + ":" + string(envelope))
}
func (r *recordingJournal) Running(id string, at time.Time) { r.add("running:" + id) }
func (r *recordingJournal) Finished(id string, state string, errMsg string, at time.Time) {
	r.add("finish:" + id + ":" + state)
}

func (r *recordingJournal) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// Jobs with a Spec.Envelope journal every state transition; jobs without
// one (e.g. cluster shard sub-jobs) stay memory-only. A cache hit journals
// submit + done with no running record.
func TestJournalHooks(t *testing.T) {
	rec := &recordingJournal{}
	m := New(Config{Workers: 1, Journal: rec})
	defer m.Close()

	spec := Spec{
		CacheKey: "journaled",
		Envelope: []byte("env"),
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{Method: "j"}, nil
		},
	}
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	id := job.ID()
	want := []string{"submit:" + id + ":env", "running:" + id, "finish:" + id + ":done"}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(rec.snapshot()) >= len(want) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	got := rec.snapshot()
	if len(got) != len(want) {
		t.Fatalf("journal events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("journal event %d = %q, want %q", i, got[i], want[i])
		}
	}

	// A cache hit: submit + finish, no running (nothing ran).
	hit, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hid := hit.ID()
	got = rec.snapshot()[len(want):]
	wantHit := []string{"submit:" + hid + ":env", "finish:" + hid + ":done"}
	if len(got) != 2 || got[0] != wantHit[0] || got[1] != wantHit[1] {
		t.Fatalf("cache-hit journal events %v, want %v", got, wantHit)
	}

	// No envelope → memory-only: nothing new is journaled.
	plain, err := m.Submit(Spec{Run: func(ctx context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if got := rec.snapshot(); len(got) != len(want)+len(wantHit) {
		t.Fatalf("envelope-less job reached the journal: %v", got)
	}
}

// A journaled job canceled while still queued gets its terminal record from
// the canceling caller (the worker never touches it).
func TestJournalQueuedCancel(t *testing.T) {
	rec := &recordingJournal{}
	m := New(Config{Workers: 1, Journal: rec})
	defer m.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := m.Submit(blockingSpec(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Spec{
		Envelope: []byte("q"),
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Cancel(queued.ID()); !ok {
		t.Fatal("cancel failed")
	}
	got := rec.snapshot()
	want := []string{"submit:" + queued.ID() + ":q", "finish:" + queued.ID() + ":canceled"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("journal events %v, want %v", got, want)
	}
	close(release)
	waitState(t, blocker, StateDone)
}

// SubmitReplayed re-submits under the original ID, re-journals, rejects
// duplicates, and bumps the ID sequence so fresh submissions never collide.
func TestSubmitReplayed(t *testing.T) {
	rec := &recordingJournal{}
	m := New(Config{Workers: 1, Journal: rec})
	defer m.Close()
	spec := Spec{
		Envelope: []byte("env"),
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{Method: "replayed"}, nil
		},
	}
	job, err := m.SubmitReplayed("j000041", spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() != "j000041" {
		t.Fatalf("replayed job ID %s, want j000041", job.ID())
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitReplayed("j000041", spec); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate replay error %v, want ErrDuplicateID", err)
	}
	fresh, err := m.Submit(Spec{Run: func(ctx context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "j000042" {
		t.Fatalf("post-replay submission got ID %s, want j000042 (sequence bumped past the replayed ID)", fresh.ID())
	}
	if st := m.Stats(); st.Replayed != 1 {
		t.Fatalf("Stats.Replayed = %d, want 1", st.Replayed)
	}
}

// Restore installs terminal history: a done job whose report the restart
// lost answers ErrResultLost, a failed one reproduces its message, and a
// non-terminal state is rejected.
func TestRestore(t *testing.T) {
	base := time.Unix(1000, 0)
	// A clock pinned just after the restored timestamps, so the TTL sweep
	// in Get does not expire the history mid-test.
	m := New(Config{Workers: 1, Now: func() time.Time { return base.Add(time.Minute) }})
	defer m.Close()

	done, err := m.Restore(Restored{
		ID: "j000001", State: StateDone, Lost: true,
		Created: base, Started: base.Add(time.Second), Finished: base.Add(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := done.Snapshot(); s.State != StateDone || !s.Finished.Equal(base.Add(2*time.Second)) {
		t.Fatalf("restored snapshot %+v", s)
	}
	if _, err := done.Report(); !errors.Is(err, ErrResultLost) {
		t.Fatalf("restored done job Report error %v, want ErrResultLost", err)
	}
	if _, err := done.Value(); !errors.Is(err, ErrResultLost) {
		t.Fatalf("restored done job Value error %v, want ErrResultLost", err)
	}

	failed, err := m.Restore(Restored{
		ID: "j000002", State: StateFailed, Err: "dataset vanished",
		Created: base, Finished: base.Add(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failed.Report(); err == nil || err.Error() != "dataset vanished" {
		t.Fatalf("restored failed job Report error %v, want the persisted message", err)
	}

	if _, err := m.Restore(Restored{ID: "j000003", State: StateRunning}); err == nil {
		t.Fatal("Restore accepted a non-terminal state")
	}
	if _, err := m.Restore(Restored{ID: "j000001", State: StateDone}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate restore error %v, want ErrDuplicateID", err)
	}
	if st := m.Stats(); st.Restored != 2 || st.Jobs != 2 {
		t.Fatalf("stats restored=%d jobs=%d, want 2 and 2", st.Restored, st.Jobs)
	}

	// Restored history obeys the same TTL as everything else.
	if _, ok := m.Get("j000001"); !ok {
		t.Fatal("restored job not retrievable")
	}
}

// blockingJournal is a Journal whose Finished blocks until release is closed.
type blockingJournal struct{ release chan struct{} }

func (b *blockingJournal) Submitted(string, time.Time, []byte)        {}
func (b *blockingJournal) Running(string, time.Time)                  {}
func (b *blockingJournal) Finished(string, string, string, time.Time) { <-b.release }

// A job's report is in the result cache by the time Done fires, so a request
// repeated right after a synchronous response is a cache hit even while the
// job's terminal journal record is still being written.
func TestResultCachedBeforeDone(t *testing.T) {
	jr := &blockingJournal{release: make(chan struct{})}
	m := New(Config{Workers: 1, Journal: jr})
	defer m.Close()
	defer close(jr.release) // runs before Close: the worker must get past Finished
	run := func(ctx context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{Method: "cached"}, nil
	}
	first, err := m.Submit(Spec{CacheKey: "key", Envelope: []byte("env"), Run: run})
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	// No Envelope: the hit path journals nothing, so it never reaches the
	// blocked Finished.
	second, err := m.Submit(Spec{CacheKey: "key", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if s := second.Snapshot(); s.State != StateDone || !s.CacheHit {
		t.Fatalf("resubmission after Done: state %s cacheHit=%v, want a cache hit", s.State, s.CacheHit)
	}
}

// pinned is an object only a spec's closures reference.
type pinned [1 << 12]byte

// pinningSpec returns a spec whose Run (RunAny, when anyRun) and OnFinish
// each capture an object nothing else references, with weak pointers to
// both.
func pinningSpec(cacheKey string, anyRun bool) (Spec, []weak.Pointer[pinned]) {
	runObj, finObj := new(pinned), new(pinned)
	spec := Spec{CacheKey: cacheKey, Meta: "meta", OnFinish: func() { finObj[0]++ }}
	if anyRun {
		spec.RunAny = func(context.Context) (any, error) { return int(runObj[0]), nil }
	} else {
		spec.Run = func(context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{Values: []float64{float64(runObj[0])}}, nil
		}
	}
	return spec, []weak.Pointer[pinned]{weak.Make(runObj), weak.Make(finObj)}
}

// TestFinishedJobReleasesClosures: a retained terminal job pins nothing its
// Run, RunAny or OnFinish captured, on every path to a terminal state (ran,
// result-cache hit, canceled while queued), while its Meta stays.
func TestFinishedJobReleasesClosures(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	var weaks []weak.Pointer[pinned]
	var finished []*Job
	submit := func(spec Spec, ws []weak.Pointer[pinned]) *Job {
		t.Helper()
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		weaks = append(weaks, ws...)
		finished = append(finished, j)
		return j
	}
	<-submit(pinningSpec("key", false)).Done()
	if j := submit(pinningSpec("key", false)); !j.Snapshot().CacheHit {
		t.Fatal("the second submission of a key did not hit the result cache")
	}
	<-submit(pinningSpec("", true)).Done()

	started, release := make(chan struct{}), make(chan struct{})
	blocker, err := m.Submit(blockingSpec(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued := submit(pinningSpec("", false))
	if _, ok := m.Cancel(queued.ID()); !ok {
		t.Fatal("queued job unknown")
	}
	close(release)
	waitState(t, blocker, StateDone)

	// OnFinish runs on the worker just after Done closes, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		live := 0
		for _, w := range weaks {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d objects captured by finished jobs' closures are still reachable", live, len(weaks))
		}
		time.Sleep(time.Millisecond)
	}
	for _, j := range finished {
		if got, ok := m.Get(j.ID()); !ok || got.Meta() != "meta" || !got.Snapshot().State.Terminal() {
			t.Fatalf("job %s lost its status or Meta: %+v", j.ID(), j.Snapshot())
		}
	}
}

// TestDropResult: a done job lets go of its report (a cache hit's copy
// included) and keeps its status; Report answers ErrResultLost while the
// result cache still serves the key, and the held-report gauges follow.
func TestDropResult(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	spec := Spec{CacheKey: "k", Run: func(context.Context) (*knnshapley.Report, error) {
		return &knnshapley.Report{Values: make([]float64, 10)}, nil
	}}
	check := func(what string, held int, heldBytes, cacheBytes int64) {
		t.Helper()
		if st := m.Stats(); st.HeldReports != held || st.HeldBytes != heldBytes || st.ReportBytes != cacheBytes {
			t.Fatalf("%s: held %d reports of %d bytes, cache %d bytes; want %d, %d, %d",
				what, st.HeldReports, st.HeldBytes, st.ReportBytes, held, heldBytes, cacheBytes)
		}
	}
	ran, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), ran); err != nil {
		t.Fatal(err)
	}
	check("after the run", 1, 80, 80)
	hit, err := m.Submit(spec)
	if err != nil || !hit.Snapshot().CacheHit {
		t.Fatalf("resubmission: %v, cache hit %v", err, hit.Snapshot().CacheHit)
	}
	check("after the cache hit", 2, 160, 80)
	for _, j := range []*Job{ran, hit} {
		j.DropResult()
		if _, err := j.Report(); !errors.Is(err, ErrResultLost) || !strings.Contains(err.Error(), "synchronous response") {
			t.Fatalf("%s: Report after DropResult: %v, want ErrResultLost naming the synchronous response", j.ID(), err)
		}
		if _, err := j.Value(); !errors.Is(err, ErrResultLost) {
			t.Fatalf("%s: Value after DropResult: %v, want ErrResultLost", j.ID(), err)
		}
		if s := j.Snapshot(); s.State != StateDone {
			t.Fatalf("%s: state %s after DropResult, want done", j.ID(), s.State)
		}
	}
	check("after both drops", 0, 0, 80)

	// A job that failed keeps its error; one still running keeps its
	// report once it finishes.
	failed, err := m.Submit(Spec{Run: func(context.Context) (*knnshapley.Report, error) { return nil, errors.New("boom") }})
	if err != nil {
		t.Fatal(err)
	}
	<-failed.Done()
	failed.DropResult()
	if _, err := failed.Report(); err == nil || err.Error() != "boom" {
		t.Fatalf("failed job after DropResult: %v, want its own error", err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	running, err := m.Submit(blockingSpec(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	running.DropResult()
	close(release)
	if rep, err := m.Wait(context.Background(), running); err != nil || rep == nil {
		t.Fatalf("job dropped while running: %v, %v; want its report", rep, err)
	}
}

// Terminal jobs expire in finish order, whatever order they were submitted
// or queued for expiry in: a job that finishes after a later submission, a
// queued job canceled before it ran, a cache hit and a restored job with an
// old finish time. Each stays retrievable until exactly TTL after it
// finished and is gone right after, while every later one stays.
func TestExpiryInFinishOrder(t *testing.T) {
	const ttl = time.Minute
	var mu sync.Mutex
	base := time.Unix(1700000000, 0)
	now := base
	setClock := func(d time.Duration) { mu.Lock(); now = base.Add(d); mu.Unlock() }
	m := New(Config{Workers: 2, TTL: ttl, Now: func() time.Time { mu.Lock(); defer mu.Unlock(); return now }})
	defer m.Close()
	quick := func(key string) Spec {
		return Spec{CacheKey: key, Run: func(context.Context) (*knnshapley.Report, error) {
			return &knnshapley.Report{Method: "quick"}, nil
		}}
	}
	submit := func(spec Spec) *Job {
		t.Helper()
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	startA, releaseA := make(chan struct{}), make(chan struct{})
	a := submit(blockingSpec(startA, releaseA))
	<-startA
	b := submit(quick("b")) // submitted after a, finishes first
	waitState(t, b, StateDone)
	startD, releaseD := make(chan struct{}), make(chan struct{})
	d := submit(blockingSpec(startD, releaseD))
	<-startD
	c := submit(quick("")) // both workers busy: c waits in the queue
	setClock(10 * time.Second)
	if _, ok := m.Cancel(c.ID()); !ok {
		t.Fatal("queued job not found")
	}
	waitState(t, c, StateCanceled)
	setClock(20 * time.Second)
	hit := submit(quick("b"))
	if !hit.Snapshot().CacheHit {
		t.Fatal("resubmission missed the result cache")
	}
	restored, err := m.Restore(Restored{ID: "j900001", State: StateDone, Lost: true,
		Created: base, Finished: base.Add(5 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	setClock(30 * time.Second)
	close(releaseA)
	waitState(t, a, StateDone)
	setClock(40 * time.Second)
	close(releaseD)
	waitState(t, d, StateDone)

	order := []struct {
		id       string
		finished time.Duration
	}{
		{b.ID(), 0},
		{restored.ID(), 5 * time.Second},
		{c.ID(), 10 * time.Second},
		{hit.ID(), 20 * time.Second},
		{a.ID(), 30 * time.Second},
		{d.ID(), 40 * time.Second},
	}
	for i, e := range order {
		setClock(e.finished + ttl)
		for _, later := range order[i:] {
			if _, ok := m.Get(later.id); !ok {
				t.Fatalf("at %v: job %s (finished %v) expired before its TTL", e.finished+ttl, later.id, later.finished)
			}
		}
		setClock(e.finished + ttl + time.Nanosecond)
		if _, ok := m.Get(e.id); ok {
			t.Fatalf("job %s retained past its TTL", e.id)
		}
		if st := m.Stats(); st.Jobs != len(order)-i-1 {
			t.Fatalf("after job %s expired: %d jobs retained, want %d", e.id, st.Jobs, len(order)-i-1)
		}
	}
}

// BenchmarkSubmitRetained times one Submit of a trivial job plus its run
// while the manager retains about n finished jobs: the injected clock
// advances TTL/n per submission, so each new job outlives the oldest one.
func BenchmarkSubmitRetained(b *testing.B) {
	for _, n := range []int{1e3, 1e4} {
		b.Run(fmt.Sprintf("retained=%d", n), func(b *testing.B) {
			const ttl = time.Hour
			var mu sync.Mutex
			now := time.Unix(1700000000, 0)
			m := New(Config{Workers: 1, TTL: ttl, Now: func() time.Time { mu.Lock(); defer mu.Unlock(); return now }})
			defer m.Close()
			spec := Spec{RunAny: func(context.Context) (any, error) { return nil, nil }}
			submit := func() {
				mu.Lock()
				now = now.Add(ttl / time.Duration(n))
				mu.Unlock()
				j, err := m.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				<-j.Done()
			}
			for range n {
				submit()
			}
			for b.Loop() {
				submit()
			}
			if st := m.Stats(); st.Jobs < n-1 || st.Jobs > n+1 {
				b.Fatalf("%d jobs retained, want about %d", st.Jobs, n)
			}
		})
	}
}
