// Package jobs turns one-shot valuations into managed background work: a
// bounded-worker job manager that runs any Valuer method as a cancellable
// job with observable states (queued → running → done/failed/canceled),
// per-job progress fed by the engine's batch callback, TTL-based retention
// of finished jobs, and two LRU caches — valuation Reports keyed by
// (training fingerprint, test fingerprint, method, parameters) and Valuer
// sessions keyed by (training fingerprint, session options) — so a repeated
// request is answered from memory instead of recomputing, and repeated
// requests over the same training set reuse one validated, index-carrying
// session.
//
// This is the serving half the paper's efficiency results ask for: once a
// KNN-Shapley valuation is cheap enough to run interactively, a daemon still
// needs somewhere to park the N=1e5 exact runs, a way to cancel them, and a
// memory of what it already computed. cmd/svserver exposes this manager over
// HTTP as POST /jobs, GET /jobs/{id}, GET /jobs/{id}/result and
// DELETE /jobs/{id}.
//
// Two hardening layers round the manager out. Retention is enforced by a
// background sweeper goroutine (ticking at TTL/4, stopped by Close) as well
// as on Submit/Get access, so an idle server releases expired terminal jobs
// — and the datasets their Meta pins — without waiting for the next
// request. And the manager is journal-aware: jobs submitted with a spec
// Envelope have every state transition mirrored to a Config.Journal
// write-ahead sink (internal/journal implements it), and the replay half —
// SubmitReplayed and Restore — reinstalls journaled jobs after a restart
// under their original IDs.
package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knnshapley"
)

// State is a job lifecycle state.
type State string

// The job lifecycle: Submit parks a job in StateQueued; a worker moves it to
// StateRunning; it terminates in exactly one of StateDone, StateFailed or
// StateCanceled and is retained for Config.TTL after that.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Errors returned by Submit and Wait.
var (
	// ErrQueueFull rejects a Submit when QueueDepth jobs are already
	// waiting — the backpressure signal an HTTP front end maps to 429/503.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects work after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrResultLost marks a done job whose result is gone: one restored
	// from the journal after a restart (the journal preserves job history,
	// not reports) or one whose result was handed to the caller that
	// waited for it (Job.DropResult). The values must be recomputed by
	// resubmitting the request.
	ErrResultLost = errors.New("jobs: result not retained")
	// ErrDuplicateID rejects a replay submission whose ID is already held.
	ErrDuplicateID = errors.New("jobs: duplicate job id")
)

// Spec describes one valuation job. A terminal job keeps its Meta,
// CacheKey and Envelope for the TTL (the result endpoints and the journal
// read them) but drops Run and RunAny as it finishes, and OnFinish once it
// has fired, so what those closures capture (sessions, datasets, registry
// handles) is not pinned by the retained job.
type Spec struct {
	// CacheKey identifies the computation for the result cache. Equal keys
	// must denote identical computations — conventionally the training-set
	// fingerprint, test-set fingerprint, method name and every parameter.
	// Empty disables caching for this job (e.g. non-deterministic runs the
	// caller does not want replayed).
	CacheKey string
	// TotalUnits is the progress denominator — the number of test points the
	// valuation will process. Zero means unknown until the engine reports.
	TotalUnits int
	// Run executes the valuation. The context it receives is canceled by
	// DELETE-style cancellation, by Config.JobTimeout and by Manager.Close,
	// and already carries a knnshapley progress callback wired to the job —
	// passing it straight into a Valuer method is all a caller needs to do
	// for progress to flow.
	Run func(ctx context.Context) (*knnshapley.Report, error)
	// RunAny is the generic alternative to Run for jobs whose result is not
	// a valuation Report — the cluster worker's shard sub-jobs return binary
	// neighbor-list reports through it. Exactly one of Run and RunAny must
	// be set (Run wins if both are). RunAny results bypass the Report result
	// cache (set CacheKey to "" for such jobs) and are retrieved with
	// Job.Value instead of Job.Report.
	RunAny func(ctx context.Context) (any, error)
	// Meta is opaque caller context retained with the job (e.g. the HTTP
	// layer's response metadata); retrieve it with Job.Meta.
	Meta any
	// Envelope is the job's durable spec: an opaque, self-contained
	// serialization (conventionally a wire.JobEnvelope) from which the
	// submission can be re-created after a process restart. A non-empty
	// Envelope opts the job into Config.Journal — every state transition is
	// journaled — while an empty one keeps it memory-only (e.g. cluster
	// shard sub-jobs, which the coordinator re-drives itself).
	Envelope []byte
	// OnFinish, if set, runs exactly once when the job reaches a terminal
	// state — done, failed or canceled, including the paths that never
	// invoke Run (a result-cache hit at Submit, a cancellation while still
	// queued, and a Submit rejected outright). It is the release hook for
	// resources the job pins for its whole lifetime, e.g. dataset-registry
	// handles for by-reference valuations. It runs outside the manager and
	// job locks and must not block for long (it is called from the worker
	// goroutine or the submitting/canceling caller).
	OnFinish func()
}

// Config tunes a Manager. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	// Each job itself fans out over the engine's worker pool, so this
	// bounds valuations in flight, not CPU.
	Workers int
	// QueueDepth bounds jobs waiting to run (default 64); beyond it Submit
	// returns ErrQueueFull.
	QueueDepth int
	// TTL is how long a terminal job stays retrievable (default 15m).
	TTL time.Duration
	// CacheSize bounds the report LRU (default 128 entries).
	CacheSize int
	// ValuerCacheSize bounds the session LRU (default 32 entries).
	ValuerCacheSize int
	// JobTimeout bounds one job's run time (0 = unbounded); an exceeded
	// deadline fails the job.
	JobTimeout time.Duration
	// SweepInterval is the background TTL sweeper's tick (default TTL/4).
	// The sweeper runs on the real clock; expiry decisions use Now.
	SweepInterval time.Duration
	// Journal, if set, receives the state transitions of every job
	// submitted with a non-empty Spec.Envelope — the write-ahead hook that
	// makes jobs replayable after a crash (internal/journal implements it).
	Journal Journal
	// Now overrides the clock, for tests (TTL expiry, cache-hit durations).
	Now func() time.Time
}

// Journal is the write-ahead sink for job state transitions. The submit and
// terminal records are the durable ones (a crash between them replays the
// job from its envelope); Running is advisory — a lost running record
// replays as queued, which re-runs identically. Implementations must be
// safe for concurrent use and must not call back into the Manager; they are
// invoked with manager or job locks held.
type Journal interface {
	Submitted(id string, at time.Time, envelope []byte)
	Running(id string, at time.Time)
	Finished(id string, state string, errMsg string, at time.Time)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.ValuerCacheSize <= 0 {
		c.ValuerCacheSize = 32
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Job is one submitted valuation. All exported methods are safe for
// concurrent use.
type Job struct {
	id   string
	spec Spec

	done  atomic.Int64 // test points processed
	total atomic.Int64 // test points expected

	mu       sync.Mutex
	state    State
	report   *knnshapley.Report
	value    any // RunAny result, for jobs that bypass the Report path
	err      error
	cacheHit bool
	canceled bool  // cancellation requested (possibly while still queued)
	lost     error // done, but the result is gone (ErrResultLost, wrapped)
	cancel   context.CancelFunc
	created  time.Time
	started  time.Time
	finished time.Time

	doneCh chan struct{} // closed exactly once, on reaching a terminal state

	finishOnce  sync.Once // guards Spec.OnFinish
	journalOnce sync.Once // guards the journal's terminal record

	retired bool // queued in the manager's expiry heap; guarded by Manager.mu
}

// finalize runs Spec.OnFinish exactly once and lets go of it. Callers
// invoke it only after the job is terminal, and never while holding j.mu or
// the manager mutex.
func (j *Job) finalize() {
	j.finishOnce.Do(func() {
		if f := j.spec.OnFinish; f != nil {
			j.spec.OnFinish = nil
			f()
		}
	})
}

// ID returns the manager-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Meta returns the Spec.Meta the job was submitted with.
func (j *Job) Meta() any { return j.spec.Meta }

// Snapshot is a point-in-time view of a job, safe to serialize.
type Snapshot struct {
	ID    string
	State State
	// Done and Total count test points processed / expected. Total may be 0
	// until known.
	Done, Total int
	// CacheHit marks a job answered from the result cache without running.
	CacheHit bool
	// Err carries the failure or cancellation message of a terminal job.
	Err                        string
	Created, Started, Finished time.Time
}

// Snapshot returns the job's current state, progress and timestamps.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:       j.id,
		State:    j.state,
		Done:     int(j.done.Load()),
		Total:    int(j.total.Load()),
		CacheHit: j.cacheHit,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Report returns the job's result. It errors while the job is still
// pending and reproduces the run's error for failed/canceled jobs. The
// returned Report is shared (possibly with the result cache) and must be
// treated as read-only.
func (j *Job) Report() (*knnshapley.Report, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return nil, fmt.Errorf("jobs: job %s is %s", j.id, j.state)
	case j.err != nil:
		return nil, j.err
	case j.lost != nil:
		return nil, j.lost
	default:
		return j.report, nil
	}
}

// Value returns the result of a RunAny job, with the same pending/terminal
// semantics as Report. For a Run job it returns the Report (as any), so
// generic callers need not know which kind they polled.
func (j *Job) Value() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return nil, fmt.Errorf("jobs: job %s is %s", j.id, j.state)
	case j.err != nil:
		return nil, j.err
	case j.lost != nil:
		return nil, j.lost
	case j.value != nil:
		return j.value, nil
	default:
		return j.report, nil
	}
}

// DropResult lets go of a done job's report (or RunAny value) while the job
// keeps its status for the TTL; Report and Value then return
// ErrResultLost. It is for a job whose one reader has already had the
// result: the synchronous caller that waited for it. A job that is not done
// is left as it is.
func (j *Job) DropResult() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.lost != nil {
		return
	}
	j.report, j.value = nil, nil
	j.lost = fmt.Errorf("jobs: job %s: its result went out on the synchronous response: %w", j.id, ErrResultLost)
}

// heldReport returns the report the job holds, if any.
func (j *Job) heldReport() *knnshapley.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// reportBytes is the size of a report's values, the part that grows with N.
func reportBytes(rep *knnshapley.Report) int64 { return 8 * int64(len(rep.Values)) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// observe is the progress sink installed on the job's context.
func (j *Job) observe(done, total int) {
	j.done.Store(int64(done))
	if total > 0 {
		j.total.Store(int64(total))
	}
}

// requestCancel flips the job toward cancellation: a queued job terminates
// immediately, a running one has its context canceled and terminates when
// the engine unwinds. Terminal jobs are left untouched.
func (j *Job) requestCancel(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.canceled {
		return
	}
	j.canceled = true
	switch j.state {
	case StateQueued:
		// Finish right here: the worker that eventually pops the job from
		// the queue will see canceled=true and skip it.
		j.finishLocked(StateCanceled, nil, context.Canceled, now)
	case StateRunning:
		j.cancel()
	}
}

// finishLocked moves the job to a terminal state. Callers hold j.mu.
func (j *Job) finishLocked(state State, rep *knnshapley.Report, err error, now time.Time) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.report = rep
	j.err = err
	j.finished = now
	j.spec.Run, j.spec.RunAny = nil, nil
	close(j.doneCh)
}

// Manager owns the worker pool, the job table and the two caches.
type Manager struct {
	cfg   Config
	queue chan *Job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	expiry  expiryHeap // the terminal jobs in m.jobs, by finish time
	reports *lru[*knnshapley.Report]
	valuers *lru[*valuerEntry]
	closed  bool

	seq          atomic.Uint64
	runs         atomic.Int64 // Spec.Run invocations, i.e. cache misses
	hits         atomic.Int64 // jobs answered from the result cache
	valuerBuilds atomic.Int64 // Valuer sessions constructed
	replayed     atomic.Int64 // journal-replayed jobs re-submitted to run again
	restored     atomic.Int64 // journal-replayed terminal jobs kept as history
}

// valuerEntry caches one session build, errors included; the sync.Once
// keeps construction out of the manager mutex while guaranteeing a single
// build per key (same pattern as the Valuer's own index cache).
type valuerEntry struct {
	once sync.Once
	v    *knnshapley.Valuer
	err  error
}

// New starts a Manager with cfg.Workers background workers.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		reports:    newLRU[*knnshapley.Report](cfg.CacheSize),
		valuers:    newLRU[*valuerEntry](cfg.ValuerCacheSize),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	interval := cfg.SweepInterval
	if interval <= 0 {
		interval = cfg.TTL / 4
	}
	m.wg.Add(1)
	go m.sweeper(interval)
	return m
}

// sweeper enforces TTL retention on idle managers: without it, terminal
// jobs (and whatever their Meta pins) would linger until the next
// Submit/Get happened to trigger sweepLocked. The ticker runs on the real
// clock; the expiry decisions inside sweepLocked use the injected Now.
func (m *Manager) sweeper(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.mu.Lock()
			if !m.closed {
				m.sweepLocked(m.now())
			}
			m.mu.Unlock()
		}
	}
}

// journaled reports whether j's transitions go to the write-ahead journal.
func (m *Manager) journaled(j *Job) bool {
	return m.cfg.Journal != nil && len(j.spec.Envelope) > 0
}

// journalSubmit writes the durable submit record.
func (m *Manager) journalSubmit(j *Job, at time.Time) {
	if m.journaled(j) {
		m.cfg.Journal.Submitted(j.id, at, j.spec.Envelope)
	}
}

// journalFinish writes the durable terminal record, exactly once per job.
func (m *Manager) journalFinish(j *Job) {
	if !m.journaled(j) {
		return
	}
	j.mu.Lock()
	state, jerr, fin := j.state, j.err, j.finished
	j.mu.Unlock()
	if !state.Terminal() {
		return
	}
	j.journalOnce.Do(func() {
		var msg string
		if jerr != nil {
			msg = jerr.Error()
		}
		m.cfg.Journal.Finished(j.id, string(state), msg, fin)
	})
}

func (m *Manager) now() time.Time { return m.cfg.Now() }

// Submit registers spec as a new job. A cache hit (same CacheKey as an
// earlier completed job) returns a job that is already done, carrying the
// cached Report, without consuming a worker; otherwise the job is enqueued
// and runs when a worker frees up. ErrQueueFull and ErrClosed are the only
// failure modes. Once Submit has been called, Spec.OnFinish is guaranteed
// to fire exactly once — immediately, for rejected submissions and cache
// hits.
func (m *Manager) Submit(spec Spec) (job *Job, err error) {
	now := m.now()
	j := &Job{
		spec:    spec,
		state:   StateQueued,
		created: now,
		doneCh:  make(chan struct{}),
	}
	j.total.Store(int64(spec.TotalUnits))
	job = j

	// Registered before the mutex defers so it runs after the locks are
	// released: a rejected submission or a cache hit is already terminal
	// from the caller's point of view and must release what the spec pins.
	// (j, not the named return — error paths reset that to nil.)
	defer func() {
		if err != nil || j.Snapshot().State.Terminal() {
			j.finalize()
		}
	}()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.sweepLocked(now)
	job.id = fmt.Sprintf("j%06d", m.seq.Add(1))
	if spec.CacheKey != "" {
		if rep, ok := m.reports.get(spec.CacheKey); ok {
			m.hits.Add(1)
			// The job carries a copy marked as a hit, with the (near-zero)
			// lookup duration instead of the original run's — replaying the
			// old wall-clock time would misreport what this request cost.
			// The cached report itself stays pristine for later audits,
			// which requires deep-copying the slice fields: a shallow copy
			// would share the Values backing array, letting one caller's
			// mutation corrupt every future hit.
			hit := *rep
			hit.Values = append([]float64(nil), rep.Values...)
			if rep.Plan != nil {
				plan := *rep.Plan
				plan.Estimates = append([]knnshapley.PlanEstimate(nil), rep.Plan.Estimates...)
				hit.Plan = &plan
			}
			hit.CacheHit = true
			hit.Duration = m.now().Sub(now)
			job.mu.Lock()
			job.cacheHit = true
			job.done.Store(int64(rep.TestPoints))
			job.total.Store(int64(rep.TestPoints))
			job.finishLocked(StateDone, &hit, nil, now)
			job.mu.Unlock()
			m.jobs[job.id] = job
			m.retireLocked(job)
			// Journal the hit as submit + done so a restart restores it as
			// history (the report itself is not journaled — re-polling the
			// result after a restart gets ErrResultLost).
			m.journalSubmit(job, now)
			m.journalFinish(job)
			return job, nil
		}
	}
	select {
	case m.queue <- job:
		m.jobs[job.id] = job
		// Journaled after the enqueue succeeded but before Submit returns:
		// an accepted submission is durable, a queue-full rejection leaves
		// no trace to replay. A crash in between means the caller never saw
		// the job id — consistent either way.
		m.journalSubmit(job, now)
		return job, nil
	default:
		return nil, ErrQueueFull
	}
}

// SubmitReplayed re-submits a journal-replayed job under its original id,
// so clients polling GET /jobs/{id} across the restart find it again. It
// skips the result-cache lookup (a fresh process has an empty cache; the
// run must actually happen) and re-journals the submission so the new
// journal is self-contained. Errors: ErrClosed, ErrDuplicateID and
// ErrQueueFull. Like Submit, Spec.OnFinish fires even on rejection.
func (m *Manager) SubmitReplayed(id string, spec Spec) (job *Job, err error) {
	now := m.now()
	j := &Job{
		id:      id,
		spec:    spec,
		state:   StateQueued,
		created: now,
		doneCh:  make(chan struct{}),
	}
	j.total.Store(int64(spec.TotalUnits))
	defer func() {
		if err != nil {
			j.finalize()
		}
	}()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, ok := m.jobs[id]; ok {
		return nil, ErrDuplicateID
	}
	m.bumpSeq(id)
	select {
	case m.queue <- j:
		m.jobs[id] = j
		m.replayed.Add(1)
		m.journalSubmit(j, now)
		return j, nil
	default:
		return nil, ErrQueueFull
	}
}

// Restored describes a journal-replayed job that is installed directly in a
// terminal state: either it finished before the restart (done/failed/
// canceled inside TTL — kept as retrievable history) or replay itself
// failed it (e.g. its dataset vanished from the registry).
type Restored struct {
	ID    string
	State State  // must be terminal
	Err   string // failure/cancellation message, if any
	// Lost marks a done job whose report predates the restart: the job's
	// history is retrievable but Report/Value return ErrResultLost.
	// Failed/canceled restores reproduce their Err instead.
	Lost                       bool
	Created, Started, Finished time.Time
	Meta                       any
	Envelope                   []byte
}

// Restore installs a terminal job from the journal. The job is immediately
// done/failed/canceled, counts toward Stats.Restored, and is re-journaled
// so the restart doubles as journal compaction.
func (m *Manager) Restore(r Restored) (*Job, error) {
	if !r.State.Terminal() {
		return nil, fmt.Errorf("jobs: Restore requires a terminal state, got %q", r.State)
	}
	now := m.now()
	fin := r.Finished
	if fin.IsZero() {
		fin = now
	}
	j := &Job{
		id: r.ID,
		spec: Spec{
			Meta:     r.Meta,
			Envelope: r.Envelope,
		},
		state:    r.State,
		created:  r.Created,
		started:  r.Started,
		finished: fin,
		doneCh:   make(chan struct{}),
	}
	if r.Err != "" {
		j.err = errors.New(r.Err)
	}
	if r.Lost && r.State == StateDone {
		j.lost = fmt.Errorf("jobs: job %s finished before a server restart: %w", r.ID, ErrResultLost)
	}
	close(j.doneCh)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := m.jobs[r.ID]; ok {
		m.mu.Unlock()
		return nil, ErrDuplicateID
	}
	m.bumpSeq(r.ID)
	m.jobs[r.ID] = j
	m.retireLocked(j)
	m.restored.Add(1)
	m.journalSubmit(j, j.created)
	m.mu.Unlock()

	m.journalFinish(j)
	j.finalize()
	return j, nil
}

// bumpSeq advances the id sequence past a replayed "jNNNNNN" id so fresh
// submissions never collide with replayed ones. Foreign id shapes are
// ignored. Callers hold m.mu.
func (m *Manager) bumpSeq(id string) {
	s, ok := strings.CutPrefix(id, "j")
	if !ok {
		return
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return
	}
	for {
		cur := m.seq.Load()
		if cur >= n || m.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// TTL returns the effective terminal-job retention period.
func (m *Manager) TTL() time.Duration { return m.cfg.TTL }

// Get returns a retained job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.now())
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job: a queued job terminates
// immediately, a running one as soon as the engine observes its canceled
// context (within one batch, or one Monte-Carlo permutation). Canceling a
// terminal job is a no-op. The second return is false when id is unknown.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.requestCancel(m.now())
	if j.Snapshot().State.Terminal() {
		// Canceled while still queued: the worker will never touch this job,
		// so its expiry, release hook and terminal journal record start here.
		m.mu.Lock()
		m.retireLocked(j)
		m.mu.Unlock()
		m.journalFinish(j)
		j.finalize()
	}
	return j, true
}

// Wait blocks until the job terminates or ctx is canceled, whichever comes
// first, and returns the job's Report (or its terminal error). A Wait
// abandoned by ctx leaves the job running — callers that want abandonment
// to stop the work cancel the job themselves.
func (m *Manager) Wait(ctx context.Context, j *Job) (*knnshapley.Report, error) {
	select {
	case <-j.Done():
		return j.Report()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Valuer returns the cached session for key, building it with build on the
// first request. Keys must encode everything that shapes the session:
// training-set fingerprint plus the options handed to knnshapley.New. Build
// errors are cached too (they are deterministic in the key).
func (m *Manager) Valuer(key string, build func() (*knnshapley.Valuer, error)) (*knnshapley.Valuer, error) {
	m.mu.Lock()
	e, ok := m.valuers.get(key)
	if !ok {
		e = &valuerEntry{}
		m.valuers.add(key, e)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.v, e.err = build()
		if e.err == nil {
			m.valuerBuilds.Add(1)
		}
	})
	return e.v, e.err
}

// Stats is a point-in-time view of the manager's counters: the top level of
// svserver's /statz and, under the prom names whose help says what each
// counts, of /metrics. Runs counts Spec.Run invocations only: RunAny jobs
// (deltas, index builds, shard sub-jobs) are not valuations. The byte
// gauges count 8 bytes per value; a job that ran holds the very report the
// result cache holds, so the two may count the same values.
type Stats struct {
	Jobs          int   `json:"jobs" prom:"svserver_jobs_retained,Jobs currently retained (any state)."`
	Queued        int   `json:"queued" prom:"svserver_jobs_queued,Jobs waiting to run."`
	Running       int   `json:"running" prom:"svserver_jobs_running,Jobs currently executing."`
	CacheHits     int64 `json:"cacheHits" prom:"svserver_job_cache_hits_total,Jobs served from the result cache."`
	Runs          int64 `json:"runs" prom:"svserver_job_runs_total,Valuation executions."`
	ValuerBuilds  int64 `json:"valuerBuilds" prom:"svserver_valuer_builds_total,Valuer sessions constructed."`
	Replayed      int64 `json:"replayed" prom:"svserver_jobs_replayed_total,Journal-replayed jobs re-submitted after a restart."`
	Restored      int64 `json:"restored" prom:"svserver_jobs_restored_total,Journal-replayed terminal jobs restored as history."`
	ReportEntries int   `json:"reportEntries" prom:"svserver_report_cache_entries,Result-cache occupancy."`
	ReportBytes   int64 `json:"reportBytes" prom:"svserver_report_cache_bytes,Bytes of values in the result cache."`
	HeldReports   int   `json:"heldReports" prom:"svserver_jobs_held_reports,Finished jobs still holding their report."`
	HeldBytes     int64 `json:"heldReportBytes" prom:"svserver_jobs_held_report_bytes,Bytes of values in the reports finished jobs hold."`
	ValuerEntries int   `json:"valuerEntries" prom:"svserver_valuer_cache_entries,Session-cache occupancy."`
}

// Stats returns current counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Jobs:          len(m.jobs),
		CacheHits:     m.hits.Load(),
		Runs:          m.runs.Load(),
		ValuerBuilds:  m.valuerBuilds.Load(),
		Replayed:      m.replayed.Load(),
		Restored:      m.restored.Load(),
		ReportEntries: m.reports.len(),
		ValuerEntries: m.valuers.len(),
	}
	m.reports.each(func(rep *knnshapley.Report) { s.ReportBytes += reportBytes(rep) })
	for _, j := range m.jobs {
		switch j.Snapshot().State {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		default:
			if rep := j.heldReport(); rep != nil {
				s.HeldReports++
				s.HeldBytes += reportBytes(rep)
			}
		}
	}
	return s
}

// Close stops accepting work, cancels every queued and running job and
// waits for the workers to drain. It is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	close(m.queue)
	m.wg.Wait()
}

// sweepLocked drops terminal jobs whose TTL has lapsed. It pops them off
// the expiry heap, so it costs time in proportion to the jobs it drops, not
// to the jobs retained. Callers hold m.mu.
func (m *Manager) sweepLocked(now time.Time) {
	for len(m.expiry) > 0 && now.Sub(m.expiry[0].finished) > m.cfg.TTL {
		j := heap.Pop(&m.expiry).(expiring).job
		delete(m.jobs, j.id)
	}
}

// retireLocked queues a terminal job of m.jobs for expiry, once. Every path
// that turns a retained job terminal calls it. Callers hold m.mu.
func (m *Manager) retireLocked(j *Job) {
	s := j.Snapshot()
	if j.retired || !s.State.Terminal() {
		return
	}
	j.retired = true
	heap.Push(&m.expiry, expiring{finished: s.Finished, job: j})
}

// expiring is a terminal job in the expiry heap.
type expiring struct {
	finished time.Time
	job      *Job
}

// expiryHeap is a min-heap of terminal jobs by finish time (container/heap).
// Jobs reach it out of finish order: a restored job brings an old finish
// time, and a worker reads the clock before it takes the manager's lock to
// queue its job.
type expiryHeap []expiring

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(a, b int) bool { return h[a].finished.Before(h[b].finished) }
func (h expiryHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiring)) }
func (h *expiryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob executes one job end to end on the calling worker goroutine.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state.Terminal() {
		// Canceled while queued; requestCancel already finished it (and
		// Cancel ran the release hook — finalize here is a once-guarded
		// no-op kept for safety).
		job.mu.Unlock()
		job.finalize()
		return
	}
	run, runAny := job.spec.Run, job.spec.RunAny
	var ctx context.Context
	var cancel context.CancelFunc
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, m.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	job.cancel = cancel
	job.state = StateRunning
	job.started = m.now()
	started := job.started
	job.mu.Unlock()

	if m.journaled(job) {
		m.cfg.Journal.Running(job.id, started)
	}
	runCtx := knnshapley.ContextWithProgress(ctx, job.observe)
	var rep *knnshapley.Report
	var val any
	var err error
	switch {
	case run != nil:
		m.runs.Add(1)
		rep, err = run(runCtx)
	case runAny != nil:
		val, err = runAny(runCtx)
	default:
		err = errors.New("jobs: spec has neither Run nor RunAny")
	}
	cancel()
	now := m.now()

	// Populate the result cache before the job turns terminal (and outside
	// job.mu — lock order: m.mu alone): a caller woken by Done must find the
	// report when it resubmits the same key. err == nil means StateDone.
	if err == nil && job.spec.CacheKey != "" && rep != nil {
		m.mu.Lock()
		m.reports.add(job.spec.CacheKey, rep)
		m.mu.Unlock()
	}

	job.mu.Lock()
	requested := job.canceled
	switch {
	case err == nil:
		job.value = val
		if run == nil {
			// A finished RunAny job has done every unit, whether or not it
			// reported progress on the way (deltas and index builds don't).
			job.done.Store(job.total.Load())
		}
		job.finishLocked(StateDone, rep, nil, now)
	case requested || errors.Is(err, context.Canceled):
		// Explicit DELETE or manager shutdown; either way the caller asked.
		job.finishLocked(StateCanceled, nil, err, now)
	default:
		// Includes a lapsed JobTimeout (context.DeadlineExceeded): the
		// server imposed a limit the job overran — that is a failure, not a
		// requested cancellation.
		job.finishLocked(StateFailed, nil, err, now)
	}
	job.mu.Unlock()

	m.mu.Lock()
	m.retireLocked(job)
	m.mu.Unlock()
	m.journalFinish(job)
	job.finalize()
}
