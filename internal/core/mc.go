package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"knnshapley/internal/knn"
	"knnshapley/internal/stats"
)

// BoundKind selects how the improved Monte-Carlo estimator picks its
// permutation budget.
type BoundKind int

const (
	// BoundBennett solves Theorem 5's Eq. (32) numerically — the paper's
	// improved bound, roughly flat in N.
	BoundBennett BoundKind = iota
	// BoundBennettApprox uses the closed-form T̃ = r²/ε²·log(2K/δ) (Eq. 34).
	BoundBennettApprox
	// BoundHoeffding uses the Section 2.2 baseline budget
	// T = width²/(2ε²)·log(2N/δ), which grows with log N.
	BoundHoeffding
	// BoundFixed runs exactly MCConfig.T permutations.
	BoundFixed
)

// String names the bound.
func (b BoundKind) String() string {
	switch b {
	case BoundBennett:
		return "bennett"
	case BoundBennettApprox:
		return "bennett-approx"
	case BoundHoeffding:
		return "hoeffding"
	case BoundFixed:
		return "fixed"
	default:
		return fmt.Sprintf("BoundKind(%d)", int(b))
	}
}

// MCConfig configures the improved Monte-Carlo estimator (Algorithm 2).
type MCConfig struct {
	// Eps and Delta define the (ε,δ)-approximation target.
	Eps, Delta float64
	// Bound selects the permutation budget rule.
	Bound BoundKind
	// T is the fixed budget when Bound == BoundFixed; otherwise it caps the
	// budget when positive.
	T int
	// RangeHalfWidth is the half-width r of the utility-difference range
	// [−r, r]; zero selects 1/K for unweighted classification and requires
	// an explicit value for other utilities.
	RangeHalfWidth float64
	// Heuristic, when true, stops a test point's sampling early once the max
	// change of its running estimates stays below Eps/50 for
	// HeuristicPatience consecutive permutations (the stopping rule
	// evaluated in Figure 11, applied per test point so the estimator
	// parallelizes).
	Heuristic bool
	// HeuristicPatience defaults to 5.
	HeuristicPatience int
	// MinPermutations floors the budget (default 10).
	MinPermutations int
	// Seed drives the permutation streams. Each test point derives its own
	// deterministic stream from (Seed, test index), so results are
	// reproducible for any worker count.
	Seed uint64
	// Workers and BatchSize configure the Engine fan-out (0 = defaults).
	Workers, BatchSize int
	// Progress is forwarded to the Engine (see EngineConfig.Progress): it
	// fires after every batch of test points completes all its permutations.
	Progress func(done int)
}

func (c MCConfig) withDefaults(kind knn.Kind, k int) (MCConfig, error) {
	if c.Bound != BoundFixed {
		if c.Eps <= 0 || c.Delta <= 0 || c.Delta >= 1 {
			return c, fmt.Errorf("core: MC bound %v needs eps in (0,inf), delta in (0,1); got eps=%v delta=%v",
				c.Bound, c.Eps, c.Delta)
		}
	} else if c.T <= 0 {
		return c, fmt.Errorf("core: BoundFixed needs T > 0")
	}
	if c.RangeHalfWidth <= 0 {
		if kind == knn.UnweightedClass {
			c.RangeHalfWidth = 1 / float64(k)
		} else if c.Bound != BoundFixed {
			return c, fmt.Errorf("core: RangeHalfWidth required for utility kind %v", kind)
		}
	}
	if c.HeuristicPatience <= 0 {
		c.HeuristicPatience = 5
	}
	if c.MinPermutations <= 0 {
		c.MinPermutations = 10
	}
	return c, nil
}

func (c MCConfig) engine() EngineConfig {
	return EngineConfig{Workers: c.Workers, BatchSize: c.BatchSize, Progress: c.Progress}
}

// Budget returns the permutation budget the configuration implies for a
// problem with n training points and KNN parameter k.
func (c MCConfig) Budget(n, k int) int {
	switch c.Bound {
	case BoundHoeffding:
		t := stats.HoeffdingPermutations(2*c.RangeHalfWidth, c.Eps, c.Delta, n)
		return c.capT(t)
	case BoundBennettApprox:
		t := stats.BennettApproxPermutations(c.RangeHalfWidth, c.Eps, c.Delta, k)
		return c.capT(t)
	case BoundBennett:
		t := stats.BennettPermutations(stats.KNNNonzeroProb(n, k), c.RangeHalfWidth, c.Eps, c.Delta)
		return c.capT(t)
	default:
		return c.T
	}
}

func (c MCConfig) capT(t int) int {
	if c.T > 0 && t > c.T {
		return c.T
	}
	return t
}

// MCResult reports the estimate and how it was obtained.
type MCResult struct {
	SV []float64
	// Permutations is the largest number of permutations any test point
	// executed (≤ budget under the heuristic).
	Permutations int
	// Budget is the bound-implied permutation count.
	Budget int
	// UtilityEvals counts incremental utility updates (heap hits), the
	// cost driver Algorithm 2 minimizes.
	UtilityEvals int
}

// MCKernel is Algorithm 2 as an Engine kernel: permutation sampling with a
// bounded max-heap per test point, so a step costs O(log K) unless the KNN
// set changes. Each test point samples its own deterministic permutation
// stream derived from (Seed, test index) and, by additivity, the Engine's
// average over test points is the multi-test estimate — which is what lets
// the sampler fan out over the worker pool instead of running one global
// permutation loop.
//
// The players are the training points, or with Groups set the sellers of
// the Section 6.2.2 comparison (Figure 13): inserting a seller streams all
// its points into the heap. Point-level sampling is seller-level sampling
// with one point per seller.
type MCKernel struct {
	N      int
	Groups [][]int // Groups[j] = training indices owned by player j; nil = one player per point
	Budget int
	Seed   uint64
	Cfg    MCConfig // defaults applied

	perms atomic.Int64 // max permutations any item executed
	evals atomic.Int64 // total incremental utility updates
}

// OutLen implements Kernel.
func (k *MCKernel) OutLen() int {
	if k.Groups != nil {
		return len(k.Groups)
	}
	return k.N
}

// Compute implements Kernel.
func (k *MCKernel) Compute(ctx context.Context, idx int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := checkTrainSize(tp, k.N); err != nil {
		return err
	}
	players := k.OutLen()
	inc := knn.NewIncremental(tp)
	rng := mcRNG(k.Seed, idx)
	perm := s.Ints(players)
	var prevEst []float64
	if k.Cfg.Heuristic {
		prevEst = s.Floats(3, players)
		for i := range prevEst {
			prevEst[i] = 0
		}
	}
	evals := 0
	calm := 0
	t := 0
	for ; t < k.Budget; t++ {
		// Per-permutation-chunk cancellation point: budgets routinely run to
		// thousands of permutations, so waiting for the batch boundary would
		// defeat prompt cancellation.
		if err := ctx.Err(); err != nil {
			return err
		}
		fisherYates(perm, rng)
		inc.Reset()
		prev := inc.Utility()
		for _, p := range perm {
			// Player p brings its seller's points, or at point level itself.
			u := prev
			var changed bool
			if k.Groups == nil {
				if u, changed = inc.Add(p); changed {
					evals++
				}
			} else {
				for _, i := range k.Groups[p] {
					if u, changed = inc.Add(i); changed {
						evals++
					}
				}
			}
			dst[p] += u - prev
			prev = u
		}
		if k.Cfg.Heuristic && t+1 >= k.Cfg.MinPermutations {
			// Compare the running means before and after this permutation.
			maxChange := 0.0
			inv := 1 / float64(t+1)
			for i := range dst {
				est := dst[i] * inv
				if d := est - prevEst[i]; d > maxChange {
					maxChange = d
				} else if -d > maxChange {
					maxChange = -d
				}
				prevEst[i] = est
			}
			if maxChange < k.Cfg.Eps/50 {
				calm++
				if calm >= k.Cfg.HeuristicPatience {
					t++
					break
				}
			} else {
				calm = 0
			}
		} else if k.Cfg.Heuristic {
			inv := 1 / float64(t+1)
			for i := range dst {
				prevEst[i] = dst[i] * inv
			}
		}
	}
	inv := 1 / float64(t)
	for i := range dst {
		dst[i] *= inv
	}
	k.evals.Add(int64(evals))
	atomicMax(&k.perms, int64(t))
	return nil
}

// mcRNG derives the deterministic permutation stream of test point idx.
func mcRNG(seed uint64, idx int) *rand.Rand {
	// SplitMix64 finalizer decorrelates consecutive indices.
	z := uint64(idx) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewPCG(seed, 0xc0ffee123456789a^z))
}

// fisherYates refills perm with 0..n-1 and shuffles it in place.
func fisherYates(perm []int, rng *rand.Rand) {
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ImprovedMC is Algorithm 2 over an in-memory test-point slice: permutation
// sampling with the Bennett-style budget of Theorem 5 and the optional
// Eps/50 stopping heuristic, dispatched through the shared Engine. It
// applies to every utility kind, which is what makes it the practical
// choice for weighted KNN and multi-data-per-curator games.
func ImprovedMC(tps []*knn.TestPoint, cfg MCConfig) (MCResult, error) {
	if len(tps) == 0 {
		return MCResult{}, fmt.Errorf("core: no test points")
	}
	return ImprovedMCStream(context.Background(), NewSliceSource(tps), tps[0].Kind, tps[0].N(), tps[0].K, cfg)
}

// ImprovedMCStream is ImprovedMC over a streaming test-point source (e.g.
// knn.Stream): peak memory stays bounded by the Engine batch size. kind, n
// and k describe the utility the source produces, needed to derive the
// permutation budget before any test point is materialized.
func ImprovedMCStream(ctx context.Context, src Source[*knn.TestPoint], kind knn.Kind, n, k int, cfg MCConfig) (MCResult, error) {
	cfg, err := cfg.withDefaults(kind, k)
	if err != nil {
		return MCResult{}, err
	}
	kern := &MCKernel{N: n, Budget: cfg.Budget(n, k), Seed: cfg.Seed, Cfg: cfg}
	return kern.run(ctx, src, cfg)
}

// run drives the kernel over src through the Engine and reports the estimate.
func (k *MCKernel) run(ctx context.Context, src Source[*knn.TestPoint], cfg MCConfig) (MCResult, error) {
	sv, err := NewEngine[*knn.TestPoint](cfg.engine()).Run(ctx, src, k)
	if err != nil {
		return MCResult{}, err
	}
	if sv == nil {
		return MCResult{}, fmt.Errorf("core: no test points")
	}
	return MCResult{
		SV:           sv,
		Permutations: int(k.perms.Load()),
		Budget:       k.Budget,
		UtilityEvals: int(k.evals.Load()),
	}, nil
}

// MultiSellerMC estimates seller-level Shapley values by permutation
// sampling over sellers through the Engine.
func MultiSellerMC(ctx context.Context, tps []*knn.TestPoint, owners []int, m int, cfg MCConfig) (MCResult, error) {
	if len(tps) == 0 {
		return MCResult{}, fmt.Errorf("core: no test points")
	}
	cfg, err := cfg.withDefaults(tps[0].Kind, tps[0].K)
	if err != nil {
		return MCResult{}, err
	}
	n := tps[0].N()
	if len(owners) != n {
		return MCResult{}, fmt.Errorf("core: %d owners for %d points", len(owners), n)
	}
	points := make([][]int, m)
	for i, o := range owners {
		if o < 0 || o >= m {
			return MCResult{}, fmt.Errorf("core: owner %d outside [0,%d)", o, m)
		}
		points[o] = append(points[o], i)
	}
	kern := &MCKernel{N: n, Groups: points, Budget: cfg.Budget(m, tps[0].K), Seed: cfg.Seed ^ 0xfeedface87654321, Cfg: cfg}
	return kern.run(ctx, NewSliceSource(tps), cfg)
}
