package knnshapley

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"knnshapley/internal/core"
	"knnshapley/internal/knn"
)

// The ten algorithms of the paper, registered as declarative methods. Each
// parameter struct implements Method; the named Valuer methods are thin
// wrappers constructing one of these and calling Evaluate.
func init() {
	Register(ExactParams{})
	Register(TruncatedParams{})
	Register(MCParams{})
	Register(BaselineParams{})
	Register(SellerParams{})
	Register(SellerMCParams{})
	Register(CompositeParams{})
	Register(LSHParams{})
	Register(KDParams{})
	Register(UtilityParams{})
}

// fptr is a shorthand for schema bounds.
func fptr(v float64) *float64 { return &v }

// hashInts condenses an integer slice (an owners map, a utility subset)
// into a cache-key token: 16 hex digits of FNV-1a over the values.
func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// validateOwners runs the training-set-independent checks of a seller
// assignment; the length-vs-train check happens at Run (Valuer.checkOwners).
func validateOwners(owners []int, m int) error {
	if len(owners) == 0 {
		return errors.New("owners required (one seller index per training point)")
	}
	if m <= 0 {
		return fmt.Errorf("seller count m = %d, want >= 1", m)
	}
	for i, o := range owners {
		if o < 0 || o >= m {
			return fmt.Errorf("owner %d of point %d outside [0,%d)", o, i, m)
		}
	}
	return nil
}

// ownerSpecs is the shared schema fragment of the seller-level games.
func ownerSpecs(required bool) []ParamSpec {
	return []ParamSpec{
		{Name: "owners", Type: "[]int", Required: required,
			Doc: "seller index (0..m-1) of each training point"},
		{Name: "m", Type: "int", Required: required, Min: fptr(1),
			Doc: "number of sellers"},
	}
}

// ExactParams runs the exact Shapley valuation (Theorems 1, 6 and 7). It
// has no parameters: the utility is fixed by the session (K, metric,
// weighting), and the algorithm is deterministic.
type ExactParams struct{}

// Name implements Method.
func (ExactParams) Name() string { return "exact" }

// Schema implements Method.
func (ExactParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "exact",
		Description: "Exact Shapley values: O(N log N) recursion for unweighted KNN (Theorems 1/6), counting algorithm for weighted (Theorem 7).",
		Params:      []ParamSpec{},
	}
}

// Validate implements Method.
func (ExactParams) Validate() error { return nil }

// CacheKey implements Method.
func (ExactParams) CacheKey() string { return "" }

// Run implements Method.
func (ExactParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	src, err := v.stream(test)
	if err != nil {
		return nil, err
	}
	var kern core.Kernel[*knn.TestPoint]
	switch v.cfg.kind(v.train) {
	case knn.UnweightedClass:
		kern = core.ExactClassKernel{N: v.train.N()}
	case knn.UnweightedRegress:
		kern = core.ExactRegressKernel{N: v.train.N()}
	default:
		kern = core.WeightedKernel{N: v.train.N()}
	}
	sv, err := core.NewEngine[*knn.TestPoint](v.engine(ctx, test.N())).Run(ctx, src, kern)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: sv, Method: "exact"}, test, start), nil
}

// TruncatedParams runs the (eps, 0)-approximation of Theorem 2 for
// unweighted KNN classification: only the K* = max{K, ⌈1/eps⌉} nearest
// neighbors of each test point receive (exact) values, everyone else zero.
type TruncatedParams struct {
	// Eps is the max per-point approximation error (required, > 0).
	Eps float64 `json:"eps,omitempty"`
}

// Name implements Method.
func (TruncatedParams) Name() string { return "truncated" }

// Schema implements Method.
func (TruncatedParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "truncated",
		Description: "Theorem 2 (eps,0)-approximation over the K* = max{K, ceil(1/eps)} nearest neighbors; unweighted classification only.",
		Params: []ParamSpec{
			{Name: "eps", Type: "float", Required: true, Min: fptr(0), Exclusive: true,
				Doc: "max per-point approximation error"},
		},
	}
}

// Validate implements Method.
func (p TruncatedParams) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("eps = %g, want > 0", p.Eps)
	}
	return nil
}

// CacheKey implements Method.
func (p TruncatedParams) CacheKey() string { return fmt.Sprintf("eps=%g", p.Eps) }

// Run implements Method.
func (p TruncatedParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	if v.train.IsRegression() || v.cfg.Weight != nil {
		return nil, errors.New("knnshapley: Truncated applies to unweighted classification")
	}
	src, err := v.stream(test)
	if err != nil {
		return nil, err
	}
	kern := core.TruncatedClassKernel{N: v.train.N(), Eps: p.Eps}
	sv, err := core.NewEngine[*knn.TestPoint](v.engine(ctx, test.N())).Run(ctx, src, kern)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: sv, Method: "truncated",
		KStar: core.KStar(v.cfg.K, p.Eps)}, test, start), nil
}

// MCParams runs the improved Monte-Carlo estimator (Algorithm 2):
// heap-incremental utility evaluation plus a statistical permutation budget
// (Theorem 5).
//
// The zero-value Bound (Bennett) needs eps and delta; as a convenience a
// request carrying a fixed budget t with eps or delta unset selects the
// Fixed bound — the wire convention clients already speak.
type MCParams struct {
	// Eps, Delta set the (ε,δ)-approximation target (required unless the
	// bound is fixed).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Bound selects the budget rule (default bennett).
	Bound Bound `json:"bound,omitempty"`
	// T fixes the budget when Bound == Fixed, and caps it otherwise.
	T int `json:"t,omitempty"`
	// RangeHalfWidth is the half-width r of the per-step utility-difference
	// range [−r, r]; defaults to 1/K for unweighted classification and must
	// be set explicitly for other utilities under a statistical bound.
	RangeHalfWidth float64 `json:"rangeHalfWidth,omitempty"`
	// Heuristic stops a test point's sampling early once its estimates
	// stabilize within Eps/50 (Section 6.2.2).
	Heuristic bool `json:"heuristic,omitempty"`
	// Seed drives the permutation stream.
	Seed uint64 `json:"seed,omitempty"`
}

// effective resolves the wire convention: a fixed budget T with eps or
// delta unset under the default bound means "run exactly T permutations".
func (p MCParams) effective() MCParams {
	if p.Bound == Bennett && p.T > 0 && (p.Eps <= 0 || p.Delta <= 0) {
		p.Bound = Fixed
	}
	return p
}

// internal maps the parameters and the session's engine settings onto the
// core sampler's configuration.
func (p MCParams) internal(cfg config) core.MCConfig {
	return core.MCConfig{
		Eps:            p.Eps,
		Delta:          p.Delta,
		Bound:          core.BoundKind(p.Bound),
		T:              p.T,
		RangeHalfWidth: p.RangeHalfWidth,
		Heuristic:      p.Heuristic,
		Seed:           p.Seed,
		Workers:        cfg.Workers,
		BatchSize:      cfg.BatchSize,
	}
}

// mcParamSpecs is the schema fragment shared by montecarlo and sellersmc.
func mcParamSpecs() []ParamSpec {
	return []ParamSpec{
		{Name: "eps", Type: "float", Min: fptr(0), Exclusive: true,
			Doc: "approximation error target (required unless bound=fixed)"},
		{Name: "delta", Type: "float", Min: fptr(0), Max: fptr(1), Exclusive: true,
			Doc: "approximation failure probability (required unless bound=fixed)"},
		{Name: "bound", Type: "string", Default: "bennett", Enum: BoundNames(),
			Doc: "permutation budget rule; t>0 without eps/delta implies fixed"},
		{Name: "t", Type: "int", Min: fptr(0),
			Doc: "fixed permutation budget (bound=fixed), else a cap"},
		{Name: "rangeHalfWidth", Type: "float", Min: fptr(0),
			Doc: "utility-difference half-width r (default 1/K, unweighted classification)"},
		{Name: "heuristic", Type: "bool", Default: false,
			Doc: "stop a test point early once estimates stabilize (Section 6.2.2)"},
		{Name: "seed", Type: "uint",
			Doc: "permutation stream seed"},
	}
}

// Name implements Method.
func (MCParams) Name() string { return "montecarlo" }

// Schema implements Method.
func (MCParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "montecarlo",
		Description: "Algorithm 2 permutation sampling with heap-incremental utilities and the Theorem 5 Bennett budget; works for every utility kind.",
		Params:      mcParamSpecs(),
	}
}

// Validate implements Method.
func (p MCParams) Validate() error {
	eff := p.effective()
	switch eff.Bound {
	case Bennett, BennettApprox, Hoeffding:
		if eff.Eps <= 0 {
			return fmt.Errorf("eps = %g, want > 0 (or a fixed budget t)", eff.Eps)
		}
		if eff.Delta <= 0 || eff.Delta >= 1 {
			return fmt.Errorf("delta = %g, want in (0,1)", eff.Delta)
		}
		if eff.T < 0 {
			return fmt.Errorf("t = %d, want >= 0 (0 = uncapped)", eff.T)
		}
	case Fixed:
		if eff.T <= 0 {
			return fmt.Errorf("t = %d, want >= 1 with the fixed bound", eff.T)
		}
	default:
		return fmt.Errorf("unknown bound %d", int(eff.Bound))
	}
	if eff.RangeHalfWidth < 0 {
		return fmt.Errorf("rangeHalfWidth = %g, want >= 0", eff.RangeHalfWidth)
	}
	return nil
}

// CacheKey implements Method.
func (p MCParams) CacheKey() string {
	eff := p.effective()
	return fmt.Sprintf("eps=%g|delta=%g|bound=%s|t=%d|range=%g|heuristic=%t|seed=%d",
		eff.Eps, eff.Delta, eff.Bound, eff.T, eff.RangeHalfWidth, eff.Heuristic, eff.Seed)
}

// Run implements Method.
func (p MCParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	src, err := v.stream(test)
	if err != nil {
		return nil, err
	}
	mcfg := p.effective().internal(v.cfg)
	mcfg.Progress = v.engine(ctx, test.N()).Progress
	res, err := core.ImprovedMCStream(ctx, src, v.cfg.kind(v.train), v.train.N(), v.cfg.K, mcfg)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: res.SV, Method: "montecarlo",
		Permutations: res.Permutations, Budget: res.Budget,
		UtilityEvals: res.UtilityEvals}, test, start), nil
}

// BaselineParams runs the Section 2.2 baseline estimator: permutation
// sampling with from-scratch utility evaluation and the Hoeffding budget.
// It exists for benchmarking against (Figures 5, 6 and 11); prefer
// montecarlo.
type BaselineParams struct {
	// Eps, Delta set the (ε,δ)-approximation target (required, Hoeffding).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// T caps the Hoeffding budget (0 = uncapped).
	T int `json:"t,omitempty"`
	// Seed drives the permutation stream.
	Seed uint64 `json:"seed,omitempty"`
}

// Name implements Method.
func (BaselineParams) Name() string { return "baseline" }

// Schema implements Method.
func (BaselineParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "baseline",
		Description: "Section 2.2 baseline Monte-Carlo: from-scratch utilities under the Hoeffding budget; for benchmarking against montecarlo.",
		Params: []ParamSpec{
			{Name: "eps", Type: "float", Required: true, Min: fptr(0), Exclusive: true,
				Doc: "approximation error target"},
			{Name: "delta", Type: "float", Required: true, Min: fptr(0), Max: fptr(1), Exclusive: true,
				Doc: "approximation failure probability"},
			{Name: "t", Type: "int", Min: fptr(0),
				Doc: "budget cap (0 = the full Hoeffding budget)"},
			{Name: "seed", Type: "uint",
				Doc: "permutation stream seed"},
		},
	}
}

// Validate implements Method.
func (p BaselineParams) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("eps = %g, want > 0", p.Eps)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("delta = %g, want in (0,1)", p.Delta)
	}
	if p.T < 0 {
		return fmt.Errorf("t = %d, want >= 0 (0 = uncapped)", p.T)
	}
	return nil
}

// CacheKey implements Method.
func (p BaselineParams) CacheKey() string {
	return fmt.Sprintf("eps=%g|delta=%g|t=%d|seed=%d", p.Eps, p.Delta, p.T, p.Seed)
}

// Run implements Method.
func (p BaselineParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	tps, err := v.testPoints(test)
	if err != nil {
		return nil, err
	}
	res, err := core.BaselineMC(ctx, tps, p.Eps, p.Delta, p.T, p.Seed)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: res.SV, Method: "baseline",
		Permutations: res.Permutations, Budget: res.Budget,
		UtilityEvals: res.UtilityEvals}, test, start), nil
}

// SellerParams runs the exact seller-level game (Section 4, Theorem 8):
// one Shapley value per seller when sellers contribute multiple training
// points. Cost grows like M^K — use sellersmc beyond small M·K.
type SellerParams struct {
	// Owners names the seller (0..m-1) of each training point; its length
	// must equal the training-set size and every seller must own a point.
	Owners []int `json:"owners,omitempty"`
	// M is the number of sellers.
	M int `json:"m,omitempty"`
}

// Name implements Method.
func (SellerParams) Name() string { return "sellers" }

// Schema implements Method.
func (SellerParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "sellers",
		Description: "Exact seller-level Shapley values when sellers own multiple training points (Theorem 8); cost ~M^K.",
		Params:      ownerSpecs(true),
	}
}

// Validate implements Method.
func (p SellerParams) Validate() error { return validateOwners(p.Owners, p.M) }

// CacheKey implements Method.
func (p SellerParams) CacheKey() string {
	return fmt.Sprintf("owners=%016x|m=%d", hashInts(p.Owners), p.M)
}

// Run implements Method.
func (p SellerParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	if err := v.checkOwners(p.Owners, p.M); err != nil {
		return nil, err
	}
	src, err := v.stream(test)
	if err != nil {
		return nil, err
	}
	kern := core.MultiSellerKernel{Owners: p.Owners, M: p.M}
	sv, err := core.NewEngine[*knn.TestPoint](v.engine(ctx, test.N())).Run(ctx, src, kern)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: sv, Method: "sellers"}, test, start), nil
}

// SellerMCParams estimates seller values by permutation sampling over
// sellers with heap-incremental utilities — the scalable alternative for
// large M or K (Figure 13). The Monte-Carlo fields ride along inline.
type SellerMCParams struct {
	// Owners and M are as in SellerParams.
	Owners []int `json:"owners,omitempty"`
	M      int   `json:"m,omitempty"`
	MCParams
}

// Name implements Method.
func (SellerMCParams) Name() string { return "sellersmc" }

// Schema implements Method.
func (SellerMCParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "sellersmc",
		Description: "Monte-Carlo seller-level values: permutation sampling over sellers with heap-incremental utilities (Figure 13).",
		Params:      append(ownerSpecs(true), mcParamSpecs()...),
	}
}

// Validate implements Method.
func (p SellerMCParams) Validate() error {
	if err := validateOwners(p.Owners, p.M); err != nil {
		return err
	}
	return p.MCParams.Validate()
}

// CacheKey implements Method.
func (p SellerMCParams) CacheKey() string {
	return fmt.Sprintf("owners=%016x|m=%d|%s", hashInts(p.Owners), p.M, p.MCParams.CacheKey())
}

// Run implements Method.
func (p SellerMCParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	if err := v.checkOwners(p.Owners, p.M); err != nil {
		return nil, err
	}
	tps, err := v.testPoints(test)
	if err != nil {
		return nil, err
	}
	mcfg := p.MCParams.effective().internal(v.cfg)
	mcfg.Progress = v.engine(ctx, test.N()).Progress
	res, err := core.MultiSellerMC(ctx, tps, p.Owners, p.M, mcfg)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: res.SV, Method: "sellers-mc",
		Permutations: res.Permutations, Budget: res.Budget,
		UtilityEvals: res.UtilityEvals}, test, start), nil
}

// CompositeParams runs the exact composite game (Eq. 28) valuing the
// computation provider (the "analyst") alongside the data sellers
// (Theorems 9–12). With nil owners every training point is its own seller;
// otherwise sellers are valued at the curator level.
type CompositeParams struct {
	// Owners names the seller of each training point; nil values every
	// point individually (M is then ignored).
	Owners []int `json:"owners,omitempty"`
	// M is the number of sellers when Owners is set.
	M int `json:"m,omitempty"`
}

// Name implements Method.
func (CompositeParams) Name() string { return "composite" }

// Schema implements Method.
func (CompositeParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "composite",
		Description: "Composite game valuing the analyst alongside the data sellers (Theorems 9-12); omit owners to value every point individually.",
		Params:      ownerSpecs(false),
	}
}

// Validate implements Method.
func (p CompositeParams) Validate() error {
	if p.Owners == nil {
		return nil
	}
	return validateOwners(p.Owners, p.M)
}

// CacheKey implements Method.
func (p CompositeParams) CacheKey() string {
	if p.Owners == nil {
		return "owners=nil"
	}
	return fmt.Sprintf("owners=%016x|m=%d", hashInts(p.Owners), p.M)
}

// Run implements Method.
func (p CompositeParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	m := p.M
	if p.Owners == nil {
		m = v.train.N()
	} else if err := v.checkOwners(p.Owners, m); err != nil {
		return nil, err
	}
	src, err := v.stream(test)
	if err != nil {
		return nil, err
	}
	kern := core.CompositeKernel{Owners: p.Owners, M: m}
	sv, err := core.NewEngine[*knn.TestPoint](v.engine(ctx, test.N())).Run(ctx, src, kern)
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: sv[:m], Analyst: sv[m],
		Method: "composite"}, test, start), nil
}

// LSHParams runs the sublinear (eps, delta)-approximation for unweighted
// KNN classification: only K* = max{K, ⌈1/eps⌉} neighbors are retrieved
// per query from a p-stable LSH index (Theorems 2–4). The index for a given
// (eps, delta, seed) is tuned and built once per session and reused.
type LSHParams struct {
	// Eps is the max per-point approximation error (required, > 0).
	Eps float64 `json:"eps,omitempty"`
	// Delta is the retrieval failure probability (required, in (0,1)).
	Delta float64 `json:"delta,omitempty"`
	// Seed drives the random projections.
	Seed uint64 `json:"seed,omitempty"`
}

// Name implements Method.
func (LSHParams) Name() string { return "lsh" }

// Schema implements Method.
func (LSHParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "lsh",
		Description: "Sublinear (eps,delta)-approximation from a p-stable LSH index (Theorems 2-4); unweighted L2 classification only.",
		Params: []ParamSpec{
			{Name: "eps", Type: "float", Required: true, Min: fptr(0), Exclusive: true,
				Doc: "max per-point approximation error"},
			{Name: "delta", Type: "float", Required: true, Min: fptr(0), Max: fptr(1), Exclusive: true,
				Doc: "retrieval failure probability"},
			{Name: "seed", Type: "uint",
				Doc: "random projection seed"},
		},
	}
}

// Validate implements Method.
func (p LSHParams) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("eps = %g, want > 0", p.Eps)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("delta = %g, want in (0,1)", p.Delta)
	}
	return nil
}

// CacheKey implements Method.
func (p LSHParams) CacheKey() string {
	return fmt.Sprintf("eps=%g|delta=%g|seed=%d", p.Eps, p.Delta, p.Seed)
}

// Run implements Method.
func (p LSHParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	if err := v.checkTest(test); err != nil {
		return nil, err
	}
	inner, err := v.lshValuer(p.Eps, p.Delta, p.Seed)
	if err != nil {
		return nil, err
	}
	sv, err := inner.ValueEngine(ctx, test, v.engine(ctx, test.N()))
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: sv, Method: "lsh",
		KStar: inner.KStar()}, test, start), nil
}

// KDParams runs the (eps, 0)-approximation with exact K*-nearest-neighbor
// retrieval from a k-d tree (δ = 0, so only the Theorem 2 truncation
// bounds the error). The tree for a given eps is built once per session.
type KDParams struct {
	// Eps is the max per-point approximation error (required, > 0).
	Eps float64 `json:"eps,omitempty"`
}

// Name implements Method.
func (KDParams) Name() string { return "kd" }

// Schema implements Method.
func (KDParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "kd",
		Description: "(eps,0)-approximation over exact k-d tree retrieval; the low-dimension alternative to lsh.",
		Params: []ParamSpec{
			{Name: "eps", Type: "float", Required: true, Min: fptr(0), Exclusive: true,
				Doc: "max per-point approximation error"},
		},
	}
}

// Validate implements Method.
func (p KDParams) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("eps = %g, want > 0", p.Eps)
	}
	return nil
}

// CacheKey implements Method.
func (p KDParams) CacheKey() string { return fmt.Sprintf("eps=%g", p.Eps) }

// Run implements Method.
func (p KDParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	if err := v.checkTest(test); err != nil {
		return nil, err
	}
	inner, err := v.kdValuer(p.Eps)
	if err != nil {
		return nil, err
	}
	sv, err := inner.ValueEngine(ctx, test, v.engine(ctx, test.N()))
	if err != nil {
		return nil, err
	}
	return v.report(&Report{Values: sv, Method: "kd",
		KStar: inner.KStar()}, test, start), nil
}

// UtilityParams evaluates the multi-test KNN utility ν(S) of an arbitrary
// training subset (Eq. 8) — useful for auditing group rationality of
// reported values. The report carries the single utility in Values[0].
type UtilityParams struct {
	// Subset lists the training-point indices of S (nil = the empty
	// coalition).
	Subset []int `json:"subset,omitempty"`
}

// Name implements Method.
func (UtilityParams) Name() string { return "utility" }

// Schema implements Method.
func (UtilityParams) Schema() MethodSchema {
	return MethodSchema{
		Name:        "utility",
		Description: "Multi-test KNN utility of a training subset (Eq. 8); the single value lands in values[0].",
		Params: []ParamSpec{
			{Name: "subset", Type: "[]int",
				Doc: "training-point indices of the coalition (omit for the empty one)"},
		},
	}
}

// Validate implements Method.
func (p UtilityParams) Validate() error {
	for _, i := range p.Subset {
		if i < 0 {
			return fmt.Errorf("subset index %d, want >= 0", i)
		}
	}
	return nil
}

// CacheKey implements Method.
func (p UtilityParams) CacheKey() string {
	return fmt.Sprintf("subset=%016x|len=%d", hashInts(p.Subset), len(p.Subset))
}

// Run implements Method.
func (p UtilityParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, i := range p.Subset {
		if i < 0 || i >= v.train.N() {
			return nil, fmt.Errorf("knnshapley: subset index %d outside [0,%d)", i, v.train.N())
		}
	}
	tps, err := v.testPoints(test)
	if err != nil {
		return nil, err
	}
	u := knn.AverageUtility(tps, p.Subset)
	return v.report(&Report{Values: []float64{u}, Method: "utility"}, test, start), nil
}
