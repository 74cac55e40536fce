package knnshapley

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"knnshapley/internal/core"
)

// Bound selects the permutation-budget rule of the Monte-Carlo estimator.
// On the wire it travels as its lower-case name ("bennett",
// "bennett-approx", "hoeffding", "fixed").
type Bound int

// Budget rules, from tightest to loosest (see Figure 11).
const (
	// Bennett solves Theorem 5's Eq. (32) — the paper's improved bound,
	// roughly independent of N.
	Bennett Bound = iota
	// BennettApprox is the closed form T̃ = r²/ε²·log(2K/δ) (Eq. 34).
	BennettApprox
	// Hoeffding is the Section 2.2 baseline budget, growing with log N.
	Hoeffding
	// Fixed runs exactly MCOptions.T permutations.
	Fixed
)

// boundNames maps each Bound onto its wire name, in constant order.
var boundNames = [...]string{"bennett", "bennett-approx", "hoeffding", "fixed"}

// BoundNames returns the wire names of every budget rule — the enum the
// method schemas advertise.
func BoundNames() []string { return append([]string(nil), boundNames[:]...) }

// ParseBound maps a wire name back onto its Bound.
func ParseBound(name string) (Bound, error) {
	for i, n := range boundNames {
		if n == name {
			return Bound(i), nil
		}
	}
	return 0, fmt.Errorf("unknown bound %q (want %s)", name, strings.Join(BoundNames(), ", "))
}

// String returns the wire name of the bound.
func (b Bound) String() string {
	if b >= 0 && int(b) < len(boundNames) {
		return boundNames[b]
	}
	return fmt.Sprintf("bound(%d)", int(b))
}

// MarshalJSON encodes the bound as its wire name.
func (b Bound) MarshalJSON() ([]byte, error) {
	if b < 0 || int(b) >= len(boundNames) {
		return nil, fmt.Errorf("knnshapley: cannot encode bound %d", int(b))
	}
	return json.Marshal(b.String())
}

// UnmarshalJSON accepts the wire name (and, leniently, the integer
// constant) of a budget rule.
func (b *Bound) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := ParseBound(s)
		if err != nil {
			return err
		}
		*b = parsed
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("bound: want one of %s", strings.Join(BoundNames(), ", "))
	}
	if n < 0 || n >= len(boundNames) {
		return fmt.Errorf("bound %d outside [0,%d)", n, len(boundNames))
	}
	*b = Bound(n)
	return nil
}

// MCOptions configures MonteCarlo and SellerValuesMC.
type MCOptions struct {
	// Eps, Delta set the (ε,δ)-approximation target (required unless
	// Bound == Fixed).
	Eps, Delta float64
	// Bound selects the budget rule (default Bennett).
	Bound Bound
	// T fixes the budget when Bound == Fixed, and caps it otherwise.
	T int
	// RangeHalfWidth is the half-width r of the per-step utility-difference
	// range [−r, r]; defaults to 1/K for unweighted classification and must
	// be set explicitly for other utilities when a statistical bound is
	// used.
	RangeHalfWidth float64
	// Heuristic stops a test point's sampling early once its estimates
	// stabilize within Eps/50 (the stopping rule of Section 6.2.2, applied
	// per test point so the sampler parallelizes across the engine).
	Heuristic bool
	// Seed drives the permutation stream.
	Seed uint64
}

func (o MCOptions) internal(cfg Config) core.MCConfig {
	return core.MCConfig{
		Eps:            o.Eps,
		Delta:          o.Delta,
		Bound:          core.BoundKind(o.Bound),
		T:              o.T,
		RangeHalfWidth: o.RangeHalfWidth,
		Heuristic:      o.Heuristic,
		Seed:           o.Seed,
		Workers:        cfg.Workers,
		BatchSize:      cfg.BatchSize,
	}
}

// MCReport describes a Monte-Carlo run.
type MCReport struct {
	// SV holds the estimated Shapley values.
	SV []float64
	// Permutations is the largest count any test point executed (each test
	// point samples its own stream and may stop early under Heuristic);
	// Budget is what the bound asked for.
	Permutations, Budget int
	// UtilityEvals counts incremental utility recomputations — the cost
	// metric Algorithm 2's heap trick minimizes.
	UtilityEvals int
}

// MonteCarlo estimates Shapley values with the improved Monte-Carlo
// estimator (Algorithm 2): heap-incremental utility evaluation plus the
// Bennett permutation budget of Theorem 5. Each test point samples a
// deterministic permutation stream derived from (Seed, test index).
//
// Deprecated: use New and Valuer.MonteCarlo, which honors a
// context.Context (cancellation is checked every permutation).
func MonteCarlo(train, test *Dataset, cfg Config, opts MCOptions) (MCReport, error) {
	v, err := New(train, withConfig(cfg))
	if err != nil {
		return MCReport{}, err
	}
	rep, err := v.MonteCarlo(context.Background(), test, opts)
	if err != nil {
		return MCReport{}, err
	}
	return MCReport{SV: rep.Values, Permutations: rep.Permutations, Budget: rep.Budget,
		UtilityEvals: rep.UtilityEvals}, nil
}

// BaselineMonteCarlo is the Section 2.2 baseline: permutation sampling with
// from-scratch utility evaluation and the Hoeffding budget. It exists for
// benchmarking against (Figures 5, 6 and 11); prefer Valuer.MonteCarlo.
func BaselineMonteCarlo(train, test *Dataset, cfg Config, eps, delta float64, capT int, seed uint64) (MCReport, error) {
	tps, err := cfg.testPoints(train, test, nil)
	if err != nil {
		return MCReport{}, err
	}
	res, err := core.BaselineMC(context.Background(), tps, eps, delta, capT, seed)
	if err != nil {
		return MCReport{}, err
	}
	return MCReport(res), nil
}

// LSHValuer computes sublinear (eps, delta)-approximate Shapley values for
// unweighted KNN classification by retrieving only K* = max{K, ⌈1/eps⌉}
// neighbors per query from a p-stable LSH index (Theorems 2–4). Build it
// once over the training set, then value batches or a stream of queries.
//
// Deprecated: use New and Valuer.LSH, which builds the index lazily and
// caches it inside the session.
type LSHValuer struct {
	inner *core.LSHValuer
}

// NewLSHValuer tunes LSH parameters on the training set (estimating its
// relative contrast, Section 6.1) and builds the index.
func NewLSHValuer(train *Dataset, cfg Config, eps, delta float64, seed uint64) (*LSHValuer, error) {
	if cfg.Weight != nil {
		return nil, fmt.Errorf("knnshapley: the LSH approximation applies to unweighted classification")
	}
	if cfg.Metric != L2 {
		return nil, fmt.Errorf("knnshapley: p-stable LSH requires the L2 metric")
	}
	inner, err := core.NewLSHValuer(train, core.LSHConfig{
		K: cfg.K, Eps: eps, Delta: delta, Seed: seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &LSHValuer{inner: inner}, nil
}

// Value returns approximate Shapley values averaged over the test set.
func (v *LSHValuer) Value(test *Dataset) ([]float64, error) {
	return v.inner.Value(context.Background(), test)
}

// ValueOne returns approximate Shapley values for a single streaming query.
func (v *LSHValuer) ValueOne(q []float64, label int) []float64 {
	return v.inner.ValueOne(q, label)
}

// KStar reports the retrieval depth max{K, ⌈1/eps⌉}, capped at N.
func (v *LSHValuer) KStar() int { return v.inner.KStar() }

// EstimatedContrast reports the relative contrast C_K* measured during
// tuning — the quantity that governs the approximation's speed (Theorem 3).
func (v *LSHValuer) EstimatedContrast() float64 { return v.inner.Tuned().Contrast.CK }

// KDValuer computes (eps, 0)-approximate Shapley values for unweighted KNN
// classification by retrieving the K* nearest neighbors from a k-d tree —
// the classic alternative to LSH named in Section 3.2. Retrieval is exact
// (δ = 0), so only the Theorem 2 truncation bounds the error; it excels in
// low dimension while LSH wins in high dimension.
//
// Deprecated: use New and Valuer.KD, which builds the tree lazily and
// caches it inside the session.
type KDValuer struct {
	inner   *core.KDValuer
	workers int
}

// NewKDValuer builds a k-d tree over the training set.
func NewKDValuer(train *Dataset, cfg Config, eps float64) (*KDValuer, error) {
	if cfg.Weight != nil {
		return nil, fmt.Errorf("knnshapley: the truncated approximation applies to unweighted classification")
	}
	if cfg.Metric != L2 {
		return nil, fmt.Errorf("knnshapley: the k-d tree backend requires the L2 metric")
	}
	inner, err := core.NewKDValuer(train, cfg.K, eps, 0)
	if err != nil {
		return nil, err
	}
	return &KDValuer{inner: inner, workers: cfg.Workers}, nil
}

// Value returns (eps, 0)-approximate Shapley values averaged over the test
// set.
func (v *KDValuer) Value(test *Dataset) ([]float64, error) {
	return v.inner.Value(context.Background(), test, v.workers)
}

// ValueOne values a single streaming query.
func (v *KDValuer) ValueOne(q []float64, label int) []float64 {
	return v.inner.ValueOne(q, label)
}

// KStar reports the retrieval depth max{K, ⌈1/eps⌉}, capped at N.
func (v *KDValuer) KStar() int { return v.inner.KStar() }
