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

// AblationHeap quantifies the Algorithm 2 data-structure trick: permutation
// sampling with heap-incremental utilities versus from-scratch evaluation at
// the same permutation count.
type AblationHeap struct {
	N, K, T int
	Seed    uint64
}

func (c AblationHeap) defaults() AblationHeap {
	if c.N == 0 {
		c.N = 2000
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.T == 0 {
		c.T = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the ablation.
func (c AblationHeap) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.MNISTLike(c.N, c.Seed)
	test := dataset.MNISTLike(1, c.Seed+1)
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	var incTime, naiveTime time.Duration
	incTime = timed(func() {
		_, err = core.ImprovedMC(tps, core.MCConfig{Bound: core.BoundFixed, T: c.T, Seed: c.Seed})
	})
	if err != nil {
		return nil, err
	}
	naiveTime = timed(func() {
		u := game.Func{Players: c.N, F: func(s []int) float64 { return knn.AverageUtility(tps, s) }}
		game.MonteCarloShapley(u, c.T, rand.New(rand.NewPCG(c.Seed, 1)))
	})
	return &Table{
		Title:  f("Ablation: heap-incremental utilities (Algorithm 2) vs naive re-evaluation (N=%d, T=%d)", c.N, c.T),
		Header: []string{"variant", "time", "per-permutation"},
		Rows: [][]string{
			{"heap-incremental", incTime.Round(time.Millisecond).String(), (incTime / time.Duration(c.T)).Round(time.Microsecond).String()},
			{"naive re-eval", naiveTime.Round(time.Millisecond).String(), (naiveTime / time.Duration(c.T)).Round(time.Microsecond).String()},
			{"speedup", f("%.0fx", float64(naiveTime)/float64(incTime)), ""},
		},
	}, nil
}

// AblationTruncation isolates Theorem 2 from the LSH: how much of the
// speedup comes from truncating the recursion at K* alone (still doing the
// full sort), versus the exact algorithm, and what error it costs.
type AblationTruncation struct {
	N, K  int
	NTest int
	Eps   float64
	Seed  uint64
}

func (c AblationTruncation) defaults() AblationTruncation {
	if c.N == 0 {
		c.N = 200000
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
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the ablation.
func (c AblationTruncation) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.MNISTLike(c.N, c.Seed)
	test := dataset.MNISTLike(c.NTest, c.Seed+1)
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	var exact, trunc []float64
	exactTime := timed(func() { exact, err = runKernel(tps, 1, core.ExactClassKernel{N: c.N}) })
	if err != nil {
		return nil, err
	}
	truncTime := timed(func() { trunc, err = runKernel(tps, 1, core.TruncatedClassKernel{N: c.N, Eps: c.Eps}) })
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:  f("Ablation: truncation at K* without LSH (N=%d, eps=%.2g)", c.N, c.Eps),
		Header: []string{"variant", "time", "max|err|"},
		Rows: [][]string{
			{"exact (full recursion)", exactTime.Round(time.Millisecond).String(), "0"},
			{"truncated (same sort)", truncTime.Round(time.Millisecond).String(),
				f("%.5f", stats.MaxAbsDiff(exact, trunc))},
		},
		Notes: []string{"both sort all N distances; LSH additionally removes the sort (Figure 6)"},
	}, nil
}

// AblationParallel measures the per-test-point fan-out.
type AblationParallel struct {
	N, K, NTest int
	Seed        uint64
}

func (c AblationParallel) defaults() AblationParallel {
	if c.N == 0 {
		c.N = 50000
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.NTest == 0 {
		c.NTest = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the ablation.
func (c AblationParallel) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.MNISTLike(c.N, c.Seed)
	test := dataset.MNISTLike(c.NTest, c.Seed+1)
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	kern := core.ExactClassKernel{N: c.N}
	serial := timed(func() { _, err = runKernel(tps, 1, kern) })
	if err != nil {
		return nil, err
	}
	parallel := timed(func() { _, err = runKernel(tps, 0, kern) })
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:  f("Ablation: serial vs parallel test-point fan-out (N=%d, Ntest=%d)", c.N, c.NTest),
		Header: []string{"variant", "time"},
		Rows: [][]string{
			{"serial (1 worker)", serial.Round(time.Millisecond).String()},
			{"parallel (all cores)", parallel.Round(time.Millisecond).String()},
			{"speedup", f("%.1fx", float64(serial)/float64(parallel))},
		},
	}, nil
}
