package knnshapley

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"knnshapley/internal/core"
	"knnshapley/internal/knn"
)

// Option configures a Valuer at construction time.
type Option func(*config)

// WithK sets the number of neighbors K of the KNN utility (required, >= 1).
func WithK(k int) Option { return func(c *config) { c.K = k } }

// WithMetric selects the distance metric ranking neighbors (default L2).
func WithMetric(m Metric) Option { return func(c *config) { c.Metric = m } }

// WithWeight selects the weighted KNN utilities (Eqs. 26/27) instead of the
// unweighted ones (Eqs. 5/25).
func WithWeight(w WeightFunc) Option { return func(c *config) { c.Weight = w } }

// WithWorkers bounds the goroutines a valuation computes on at once
// (default: all cores): the per-test-point kernels, and a large batch's
// distance scan and ordered reduce.
func WithWorkers(n int) Option { return func(c *config) { c.Workers = n } }

// WithBatchSize bounds how many test points are in flight at once; peak
// memory is BatchSize·N distances (default 64).
func WithBatchSize(n int) Option { return func(c *config) { c.BatchSize = n } }

// WithPrecision selects the distance-scan compute mode (default Float64).
// WithPrecision(Float32) stores and scans the training matrix in single
// precision — about half the memory traffic and twice the SIMD lanes on the
// bandwidth-bound scan — at the cost of single-precision rounding in the
// distances (see the Performance section of the package documentation for
// the tolerance contract).
func WithPrecision(p Precision) Option { return func(c *config) { c.Precision = p } }

// Report is the unified outcome of every Valuer method: the values plus how
// they were computed. Fields beyond Values/Method/Duration are populated
// only where they apply.
type Report struct {
	// Values holds one Shapley value per training point — or per seller for
	// Sellers/SellersMC/Composite (the analyst's share is in Analyst).
	Values []float64
	// Method names the algorithm that produced the values: "exact",
	// "truncated", "montecarlo", "sellers", "sellers-mc", "composite",
	// "lsh" or "kd".
	Method string
	// Duration is the wall-clock time of the valuation.
	Duration time.Duration
	// Permutations is the largest permutation count any test point executed
	// and Budget the bound-implied count (Monte-Carlo methods only).
	Permutations, Budget int
	// UtilityEvals counts incremental utility recomputations — the cost
	// metric Algorithm 2's heap trick minimizes (Monte-Carlo methods only).
	UtilityEvals int
	// KStar is the retrieval depth max{K, ⌈1/eps⌉} (truncated, LSH and KD
	// only; LSH and KD cap it at the training-set size).
	KStar int
	// Analyst is the computation provider's share (Composite only);
	// Analyst + Σ Values = ν(I).
	Analyst float64
	// Fingerprint is the content hash of the training set the values were
	// computed against (Valuer.Fingerprint) — the identity a result cache
	// keys on.
	Fingerprint uint64
	// TestPoints is the number of test points the valuation averaged over —
	// the total a Progress callback counts toward.
	TestPoints int
	// CacheHit marks a report answered from a result cache rather than
	// computed; Duration is then the (near-zero) lookup time, not the
	// original run's.
	CacheHit bool
	// Plan records the algo=auto planner's decision when this report came
	// from the auto method (Method then names the delegate that actually
	// ran); nil for directly requested methods.
	Plan *PlanDecision
}

// lshKey identifies one cached LSH index build.
type lshKey struct {
	eps, delta float64
	seed       uint64
}

// lshEntry and kdEntry hold one lazily built index each. The sync.Once
// keeps index construction out of the session mutex, so a slow build never
// blocks cache hits for other keys — while still guaranteeing exactly one
// build per key. A build error is cached too: it is deterministic in the
// key and the training set.
type lshEntry struct {
	once sync.Once
	v    *core.LSHValuer
	err  error
}

type kdEntry struct {
	once sync.Once
	v    *core.KDValuer
	err  error
}

// Valuer is a reusable valuation session over one training set: the
// training set is flattened and validated once at construction, and the
// LSH/k-d indexes the approximate methods need are built lazily on first
// use and cached for reuse across calls. All methods take a
// context.Context; cancellation aborts an in-flight valuation within one
// engine batch (and within one permutation for the Monte-Carlo loops),
// returning ctx.Err().
//
// A Valuer is safe for concurrent use by multiple goroutines.
type Valuer struct {
	train *Dataset
	cfg   config

	mu          sync.Mutex
	lsh         map[lshKey]*lshEntry
	kd          map[float64]*kdEntry
	indexBuilds int // ANN indexes constructed from scratch (tests assert reuse)
	indexLoads  int // ANN indexes reloaded from the persistent store

	fpOnce sync.Once
	fp     uint64

	preOnce sync.Once
	pre     *knn.Precomp
}

// New constructs a valuation session over train. The training set is
// validated once, here, rather than on every call. Datasets from the
// package constructors (NewClassificationDataset, ReadCSV, the synthetic
// generators) are already contiguous and used as-is; a hand-assembled
// Dataset that is not contiguous is copied into row-major storage so the
// caller's value is never mutated. At minimum WithK must be supplied:
//
//	v, err := knnshapley.New(train, knnshapley.WithK(5))
//	rep, err := v.Exact(ctx, test)
func New(train *Dataset, opts ...Option) (*Valuer, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("knnshapley: K = %d, want >= 1 (set WithK)", cfg.K)
	}
	if cfg.Precision != Float64 && cfg.Precision != Float32 {
		return nil, fmt.Errorf("knnshapley: unknown precision %v", cfg.Precision)
	}
	if train == nil {
		return nil, errors.New("knnshapley: nil training set")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("knnshapley: train: %w", err)
	}
	if train.N() == 0 {
		return nil, errors.New("knnshapley: empty training set")
	}
	if err := train.CheckFinite(); err != nil {
		return nil, fmt.Errorf("knnshapley: train: %w", err)
	}
	if _, ok := train.Flat(); !ok {
		train = train.Clone() // contiguous copy; leaves the caller's dataset alone
	}
	return &Valuer{
		train: train,
		cfg:   cfg,
		lsh:   make(map[lshKey]*lshEntry),
		kd:    make(map[float64]*kdEntry),
	}, nil
}

// Train returns the training set the session values against.
func (v *Valuer) Train() *Dataset { return v.train }

// K returns the session's KNN parameter.
func (v *Valuer) K() int { return v.cfg.K }

// Fingerprint returns the content hash of the session's training set
// (Dataset.Fingerprint), computed once and cached. Every Report carries it,
// so results can be cached and audited by training-set identity.
func (v *Valuer) Fingerprint() uint64 {
	v.fpOnce.Do(func() { v.fp = v.train.Fingerprint() })
	return v.fp
}

// engine builds the per-call engine configuration: the session's Workers
// and BatchSize plus, when ContextWithProgress installed a callback on ctx,
// a per-batch progress hook reporting against total test points.
func (v *Valuer) engine(ctx context.Context, total int) core.EngineConfig {
	ec := v.cfg.engine()
	if fn := ProgressFrom(ctx); fn != nil {
		ec.Progress = func(done int) { fn(done, total) }
	}
	return ec
}

// report stamps the session-level Report fields shared by every method.
func (v *Valuer) report(rep *Report, test *Dataset, start time.Time) *Report {
	rep.Fingerprint = v.Fingerprint()
	rep.TestPoints = test.N()
	rep.Duration = time.Since(start)
	return rep
}

// checkTest rejects test sets the valuation methods cannot work with before
// any distance is computed.
func (v *Valuer) checkTest(test *Dataset) error {
	if test == nil {
		return errors.New("knnshapley: nil test set")
	}
	if test.N() == 0 {
		return errors.New("knnshapley: empty test set")
	}
	if err := test.CheckFinite(); err != nil {
		return fmt.Errorf("knnshapley: test: %w", err)
	}
	return nil
}

// precomp returns the session's distance-scan precomputation (training-row
// norms, plus the float32 training copy in Float32 mode), built once on
// first use and shared by every stream of every request. It is nil when the
// fast path does not apply (non-Euclidean metric).
func (v *Valuer) precomp() *knn.Precomp {
	v.preOnce.Do(func() {
		v.pre = knn.NewPrecomp(v.train, v.cfg.Metric, v.cfg.Precision)
	})
	return v.pre
}

// stream validates test and returns the batched test-point producer.
func (v *Valuer) stream(test *Dataset) (*knn.Stream, error) {
	if err := v.checkTest(test); err != nil {
		return nil, err
	}
	return v.cfg.stream(v.train, test, v.precomp())
}

// testPoints validates test and materializes every test point eagerly, for
// the methods that must revisit test points across permutations.
func (v *Valuer) testPoints(test *Dataset) ([]*knn.TestPoint, error) {
	if err := v.checkTest(test); err != nil {
		return nil, err
	}
	return v.cfg.testPoints(v.train, test, v.precomp())
}

// checkOwners validates a seller assignment against the training set.
func (v *Valuer) checkOwners(owners []int, m int) error {
	if len(owners) != v.train.N() {
		return fmt.Errorf("knnshapley: %d owners for %d training points", len(owners), v.train.N())
	}
	if m <= 0 {
		return fmt.Errorf("knnshapley: seller count m = %d, want >= 1", m)
	}
	for i, o := range owners {
		if o < 0 || o >= m {
			return fmt.Errorf("knnshapley: owner %d of point %d outside [0,%d)", o, i, m)
		}
	}
	return nil
}

// Exact computes the exact Shapley value of every training point with
// respect to the KNN utility averaged over the test set (Theorems 1 and 6;
// the Theorem 7 counting algorithm when the session is weighted). Test
// points stream through the engine in WithBatchSize batches, so peak memory
// stays at BatchSize·N distances however large the test set is.
//
// It is a thin wrapper over Evaluate with ExactParams.
func (v *Valuer) Exact(ctx context.Context, test *Dataset) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: ExactParams{}, Test: test})
}

// Truncated computes the (eps, 0)-approximation of Theorem 2 for unweighted
// KNN classification: only the K* = max{K, ⌈1/eps⌉} nearest neighbors of
// each test point receive (exact) values, everyone else zero.
//
// It is a thin wrapper over Evaluate with TruncatedParams.
func (v *Valuer) Truncated(ctx context.Context, test *Dataset, eps float64) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: TruncatedParams{Eps: eps}, Test: test})
}

// MonteCarlo estimates Shapley values with the improved Monte-Carlo
// estimator (Algorithm 2): heap-incremental utility evaluation plus the
// Bennett permutation budget of Theorem 5. It works for every utility kind
// and is the recommended algorithm for weighted KNN, where exact
// computation costs N^K. Cancellation is checked every permutation.
//
// It is a thin wrapper over Evaluate with MCParams.
func (v *Valuer) MonteCarlo(ctx context.Context, test *Dataset, p MCParams) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: p, Test: test})
}

// Sellers computes the exact Shapley value of each seller when sellers
// contribute multiple training points (Section 4, Theorem 8). owners[i]
// names the seller (0..m-1) of training point i; every seller must own at
// least one point. Cost grows like M^K — use SellersMC beyond small M·K.
//
// It is a thin wrapper over Evaluate with SellerParams.
func (v *Valuer) Sellers(ctx context.Context, test *Dataset, owners []int, m int) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: SellerParams{Owners: owners, M: m}, Test: test})
}

// SellersMC estimates seller values by permutation sampling over sellers
// with heap-incremental utilities — the scalable alternative for large M or
// K (Figure 13). Cancellation is checked every permutation.
//
// It is a thin wrapper over Evaluate with SellerMCParams.
func (v *Valuer) SellersMC(ctx context.Context, test *Dataset, owners []int, m int, p MCParams) (*Report, error) {
	return v.Evaluate(ctx, Request{
		Params: SellerMCParams{Owners: owners, M: m, MCParams: p},
		Test:   test,
	})
}

// Composite computes the exact Shapley values of the composite game
// (Eq. 28) that values the computation provider alongside the data sellers
// (Theorems 9–11). With owners == nil every training point is its own
// seller; otherwise sellers are valued at the curator level (Theorem 12).
// The report's Values holds the seller shares and Analyst the provider's.
//
// It is a thin wrapper over Evaluate with CompositeParams.
func (v *Valuer) Composite(ctx context.Context, test *Dataset, owners []int, m int) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: CompositeParams{Owners: owners, M: m}, Test: test})
}

// DatasetID returns the 16-hex content fingerprint identifying the training
// set — the same identifier the dataset registry files it under, and the
// identity persisted indexes are keyed on.
func (v *Valuer) DatasetID() string { return fmt.Sprintf("%016x", v.Fingerprint()) }

// IndexStatus reports how EnsureIndex obtained its index.
type IndexStatus struct {
	// Kind is the index family ("lsh" or "kd"); Key the canonical parameter
	// string the artifact is stored under.
	Kind, Key string
	// Built marks a from-scratch construction (persisted to the store when
	// one is attached); Loaded a reload from the store. Neither set means the
	// session already held the index live.
	Built, Loaded bool
}

// EnsureIndex makes the named index available to the session ahead of any
// valuation: it reloads a persisted artifact when the attached store holds
// one, builds (and persists) it otherwise, and is a no-op when the session
// already carries it live. This is the primitive behind a server's explicit
// index-build jobs — paying the construction cost once, off the query path.
//
// Both kinds need eps > 0 (K* = max{K, ⌈1/eps⌉} shapes the LSH tables and
// the k-d retrieval depth); "lsh" additionally needs delta in (0, 1). The
// Built/Loaded attribution reads the session counters around the build, so
// concurrent EnsureIndex calls may misattribute — the index itself is
// guaranteed either way.
func (v *Valuer) EnsureIndex(kind string, eps, delta float64, seed uint64) (IndexStatus, error) {
	if eps <= 0 {
		return IndexStatus{}, fmt.Errorf("knnshapley: index build needs eps > 0, got %g", eps)
	}
	builds, loads := v.IndexBuilds(), v.IndexLoads()
	st := IndexStatus{Kind: kind}
	switch kind {
	case "lsh":
		if delta <= 0 || delta >= 1 {
			return IndexStatus{}, fmt.Errorf("knnshapley: lsh index build needs delta in (0,1), got %g", delta)
		}
		if _, err := v.lshValuer(eps, delta, seed); err != nil {
			return IndexStatus{}, err
		}
		st.Key = core.LSHConfig{K: v.cfg.K, Eps: eps, Delta: delta, Seed: seed}.LSHIndexKey()
	case "kd":
		if _, err := v.kdValuer(eps); err != nil {
			return IndexStatus{}, err
		}
		st.Key = core.KDIndexKey(0)
	default:
		return IndexStatus{}, fmt.Errorf("knnshapley: unknown index kind %q (want lsh or kd)", kind)
	}
	st.Built = v.IndexBuilds() > builds
	st.Loaded = v.IndexLoads() > loads
	return st, nil
}

// IndexBuilds reports how many ANN indexes the session constructed from
// scratch; IndexLoads how many it reloaded from the persistent store. A
// load is not a build: reloading skips tuning and construction entirely,
// which is the point of attaching a store.
func (v *Valuer) IndexBuilds() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.indexBuilds
}

// IndexLoads reports how many ANN indexes the session reloaded from the
// persistent store instead of building.
func (v *Valuer) IndexLoads() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.indexLoads
}

// HasPersistedIndex reports whether the session's store already holds an
// index of the given kind ("lsh" or "kd") and canonical key for this
// training set — the planner's "is the build already paid for?" probe.
func (v *Valuer) HasPersistedIndex(kind, key string) bool {
	if v.cfg.Indexes == nil {
		return false
	}
	return v.cfg.Indexes.HasIndex(v.DatasetID(), kind, key)
}

// loadIndex hands the store's serialized bytes for (kind, key) to decode,
// counting a successful reload. Failures fall back to a fresh build: a
// corrupt or mismatched artifact must never fail the valuation.
func (v *Valuer) loadIndex(kind, key string, decode func(io.Reader) error) bool {
	if v.cfg.Indexes == nil {
		return false
	}
	rc, ok := v.cfg.Indexes.GetIndex(v.DatasetID(), kind, key)
	if !ok {
		return false
	}
	defer rc.Close()
	if decode(rc) != nil {
		return false
	}
	v.mu.Lock()
	v.indexLoads++
	v.mu.Unlock()
	return true
}

// saveIndex persists a freshly built index, best-effort: valuation already
// succeeded with the in-memory index, so a failed save costs only the next
// session's rebuild.
func (v *Valuer) saveIndex(kind, key string, encode func(io.Writer) error) {
	if v.cfg.Indexes == nil {
		return
	}
	var buf bytes.Buffer
	if encode(&buf) != nil {
		return
	}
	_ = v.cfg.Indexes.PutIndex(v.DatasetID(), kind, key, buf.Bytes())
}

// lshValuer returns the session's cached LSH index for (eps, delta, seed),
// loading it from the persistent store or building it on first use. Index
// construction is the expensive part of the sublinear approximation, which
// is exactly what the session exists to amortize across calls; the mutex
// only guards the map, so an in-progress build never blocks calls for other
// keys.
func (v *Valuer) lshValuer(eps, delta float64, seed uint64) (*core.LSHValuer, error) {
	if v.cfg.Weight != nil {
		return nil, errors.New("knnshapley: the LSH approximation applies to unweighted classification")
	}
	if v.cfg.Metric != L2 {
		return nil, errors.New("knnshapley: p-stable LSH requires the L2 metric")
	}
	key := lshKey{eps: eps, delta: delta, seed: seed}
	v.mu.Lock()
	e, ok := v.lsh[key]
	if !ok {
		e = &lshEntry{}
		v.lsh[key] = e
	}
	v.mu.Unlock()
	e.once.Do(func() {
		cfg := core.LSHConfig{
			K: v.cfg.K, Eps: eps, Delta: delta, Seed: seed, Workers: v.cfg.Workers,
		}
		storeKey := cfg.LSHIndexKey()
		if v.loadIndex("lsh", storeKey, func(r io.Reader) error {
			lv, err := core.NewLSHValuerFromEncoded(r, v.train, cfg)
			if err == nil {
				e.v = lv
			}
			return err
		}) {
			return
		}
		e.v, e.err = core.NewLSHValuer(v.train, cfg)
		if e.err == nil {
			v.mu.Lock()
			v.indexBuilds++
			v.mu.Unlock()
			v.saveIndex("lsh", storeKey, e.v.EncodeIndex)
		}
	})
	return e.v, e.err
}

// kdValuer returns the session's cached k-d tree for eps, loading it from
// the persistent store or building it on first use. The persisted tree is
// (K, eps)-independent — one artifact per dataset serves every eps.
func (v *Valuer) kdValuer(eps float64) (*core.KDValuer, error) {
	if v.cfg.Weight != nil {
		return nil, errors.New("knnshapley: the truncated approximation applies to unweighted classification")
	}
	if v.cfg.Metric != L2 {
		return nil, errors.New("knnshapley: the k-d tree backend requires the L2 metric")
	}
	v.mu.Lock()
	e, ok := v.kd[eps]
	if !ok {
		e = &kdEntry{}
		v.kd[eps] = e
	}
	v.mu.Unlock()
	e.once.Do(func() {
		storeKey := core.KDIndexKey(0)
		if v.loadIndex("kd", storeKey, func(r io.Reader) error {
			kv, err := core.NewKDValuerFromEncoded(r, v.train, v.cfg.K, eps)
			if err == nil {
				e.v = kv
			}
			return err
		}) {
			return
		}
		e.v, e.err = core.NewKDValuer(v.train, v.cfg.K, eps, 0)
		if e.err == nil {
			v.mu.Lock()
			v.indexBuilds++
			v.mu.Unlock()
			v.saveIndex("kd", storeKey, e.v.EncodeIndex)
		}
	})
	return e.v, e.err
}

// LSH computes sublinear (eps, delta)-approximate Shapley values for
// unweighted KNN classification by retrieving only K* = max{K, ⌈1/eps⌉}
// neighbors per query from a p-stable LSH index (Theorems 2–4). The index
// for a given (eps, delta, seed) is tuned and built once per session and
// reused by every later call.
//
// It is a thin wrapper over Evaluate with LSHParams.
func (v *Valuer) LSH(ctx context.Context, test *Dataset, eps, delta float64, seed uint64) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: LSHParams{Eps: eps, Delta: delta, Seed: seed}, Test: test})
}

// KD computes (eps, 0)-approximate Shapley values for unweighted KNN
// classification by retrieving the K* nearest neighbors from a k-d tree —
// exact retrieval (δ = 0), so only the Theorem 2 truncation bounds the
// error. The tree for a given eps is built once per session and reused.
//
// It is a thin wrapper over Evaluate with KDParams.
func (v *Valuer) KD(ctx context.Context, test *Dataset, eps float64) (*Report, error) {
	return v.Evaluate(ctx, Request{Params: KDParams{Eps: eps}, Test: test})
}

// BaselineMonteCarlo is the Section 2.2 baseline estimator: permutation
// sampling with from-scratch utility evaluation and the Hoeffding budget.
// It exists for benchmarking against (Figures 5, 6 and 11); prefer
// MonteCarlo. Cancellation is checked every permutation.
//
// It is a thin wrapper over Evaluate with BaselineParams.
func (v *Valuer) BaselineMonteCarlo(ctx context.Context, test *Dataset, eps, delta float64, capT int, seed uint64) (*Report, error) {
	return v.Evaluate(ctx, Request{
		Params: BaselineParams{Eps: eps, Delta: delta, T: capT, Seed: seed},
		Test:   test,
	})
}

// Utility returns the multi-test KNN utility ν(S) of an arbitrary training
// subset (Eq. 8) — useful for auditing group rationality of reported
// values: Utility(all) − Utility(nil) must equal the sum of the Shapley
// values.
//
// It is a thin wrapper over Evaluate with UtilityParams, unwrapping the
// single utility from the report.
func (v *Valuer) Utility(ctx context.Context, test *Dataset, subset []int) (float64, error) {
	rep, err := v.Evaluate(ctx, Request{Params: UtilityParams{Subset: subset}, Test: test})
	if err != nil {
		return 0, err
	}
	return rep.Values[0], nil
}
