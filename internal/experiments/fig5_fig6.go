package experiments

import (
	"math/rand/v2"
	"time"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/game"
	"knnshapley/internal/knn"
	"knnshapley/internal/stats"
	"knnshapley/internal/vec"
)

// Fig5 reproduces Figure 5: the baseline Monte-Carlo estimate converges to
// the exact Theorem 1 values as permutations accumulate.
type Fig5 struct {
	NTrain, NTest, K int
	Checkpoints      []int
	Seed             uint64
}

// Defaults match the paper: 1000 training points, 100 test points from the
// MNIST stand-in.
func (c Fig5) defaults() Fig5 {
	if c.NTrain == 0 {
		c.NTrain = 1000
	}
	if c.NTest == 0 {
		c.NTest = 100
	}
	if c.K == 0 {
		c.K = 5
	}
	if len(c.Checkpoints) == 0 {
		c.Checkpoints = []int{10, 50, 100, 500, 1000, 2000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig5) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.MNISTLike(c.NTrain, c.Seed)
	test := dataset.MNISTLike(c.NTest, c.Seed+1)
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	exact, err := runKernel(tps, 0, core.ExactClassKernel{N: train.N()})
	if err != nil {
		return nil, err
	}

	// The MC estimate at each checkpoint is the prefix of one deterministic
	// permutation stream (same seed, growing T), evaluated with the
	// heap-incremental engine — the estimates are identical to the baseline
	// estimator's, only cheaper to produce.
	tbl := &Table{
		Title:  "Figure 5: the MC estimate converges to the exact SV (MNIST stand-in)",
		Header: []string{"permutations", "max|err|", "mean|err|", "pearson"},
	}
	for _, cp := range c.Checkpoints {
		res, err := core.ImprovedMC(tps, core.MCConfig{Bound: core.BoundFixed, T: cp, Seed: c.Seed + 2})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			f("%d", cp),
			f("%.5f", stats.MaxAbsDiff(res.SV, exact)),
			f("%.5f", stats.MeanAbsDiff(res.SV, exact)),
			f("%.4f", stats.Pearson(res.SV, exact)),
		})
	}
	return tbl, nil
}

// Fig6 reproduces Figure 6: runtime scaling of the exact algorithm, the
// LSH approximation and the baseline MC estimator over bootstrapped training
// sets of growing size (ε = δ = 0.1).
type Fig6 struct {
	Sizes      []int
	K          int
	NTest      int
	Eps, Delta float64
	// BaselinePerms caps how many baseline permutations are actually timed;
	// the full-budget time is extrapolated (the paper's baseline at 1e6
	// points runs for days).
	BaselinePerms int
	Seed          uint64
}

func (c Fig6) defaults() Fig6 {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 10000, 100000, 1000000}
	}
	if c.K == 0 {
		c.K = 1
	}
	if c.NTest == 0 {
		c.NTest = 5
	}
	if c.Eps == 0 {
		c.Eps = 0.1
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.BaselinePerms == 0 {
		c.BaselinePerms = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig6) Run() (*Table, error) {
	c = c.defaults()
	base := dataset.MNISTLike(10000, c.Seed)
	rng := rand.New(rand.NewPCG(c.Seed+7, 3))
	test := dataset.MNISTLike(c.NTest, c.Seed+1)
	tbl := &Table{
		Title: "Figure 6: runtime vs training size — exact vs LSH vs baseline MC (eps=delta=0.1)",
		Header: []string{"N", "exact", "lsh-build", "lsh-query", "baselineMC(est)",
			"exact-speedup", "lsh-vs-exact"},
		Notes: []string{
			"baseline MC time extrapolated from a few timed permutations (Hoeffding budget)",
			"per-test-point query times; bootstrapped MNIST stand-in as in the paper",
		},
	}
	for _, n := range c.Sizes {
		train := base.Bootstrap(n, rng)
		tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
		if err != nil {
			return nil, err
		}
		exactTime := timed(func() { _, err = runKernel(tps, 1, core.ExactClassKernel{N: n}) })
		if err != nil {
			return nil, err
		}
		exactTime /= time.Duration(c.NTest)

		var lshBuild, lshQuery time.Duration
		var v *core.LSHValuer
		lshBuild = timed(func() {
			v, err = core.NewLSHValuer(train, core.LSHConfig{
				K: c.K, Eps: c.Eps, Delta: c.Delta, Seed: c.Seed, MaxTables: 16, Workers: 1,
			})
		})
		if err != nil {
			return nil, err
		}
		lshQuery = timed(func() {
			for j := 0; j < c.NTest; j++ {
				v.ValueOne(test.X[j], test.Labels[j])
			}
		}) / time.Duration(c.NTest)

		// Baseline: a permutation costs Θ(N²) utility work (N prefixes, each
		// re-evaluated by scanning the prefix), so time a few permutations
		// at a capped size and extrapolate quadratically to N and to the
		// Hoeffding budget — running the real thing at 1e6 points would take
		// days, exactly the paper's point.
		budget := stats.HoeffdingPermutations(2/float64(c.K), c.Eps, c.Delta, n)
		nb := n
		if nb > 20000 {
			nb = 20000
		}
		small := train.Subset(allIdx(nb))
		smallTPs, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, small, test.Subset([]int{0}))
		if err != nil {
			return nil, err
		}
		perPerm := timed(func() {
			u := game.Func{Players: nb, F: func(s []int) float64 { return knn.AverageUtility(smallTPs, s) }}
			game.MonteCarloShapley(u, c.BaselinePerms, rng)
		}) / time.Duration(c.BaselinePerms)
		scaleUp := float64(n) / float64(nb)
		baselineEst := time.Duration(float64(perPerm) * scaleUp * scaleUp * float64(budget))

		tbl.Rows = append(tbl.Rows, []string{
			f("%d", n),
			ms(exactTime),
			ms(lshBuild),
			ms(lshQuery),
			baselineEst.Round(time.Millisecond).String(),
			f("%.0fx", float64(baselineEst)/float64(exactTime)),
			f("%.1fx", float64(exactTime)/float64(lshQuery)),
		})
	}
	return tbl, nil
}
