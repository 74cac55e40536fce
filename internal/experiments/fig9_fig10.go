package experiments

import (
	"math/rand/v2"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/lsh"
	"knnshapley/internal/stats"
	"knnshapley/internal/vec"
)

func fig9Sets(n int, seed uint64) []benchmarkSet {
	return []benchmarkSet{
		{"deep-like", dataset.DeepLike, n},
		{"gist-like", dataset.GistLike, n},
		{"dogfish-like", dataset.DogFishLike, n},
	}
}

// Fig9 reproduces Figure 9: how the relative contrast of a dataset controls
// the LSH approximation — (a) C_K* versus K*, (b) SV error versus table
// count, (c) error versus returned candidates, (d) error versus recall.
type Fig9 struct {
	N      int
	NTest  int
	K      int
	Eps    float64
	Tables []int
	Seed   uint64
}

func (c Fig9) defaults() Fig9 {
	if c.N == 0 {
		c.N = 4000
	}
	if c.NTest == 0 {
		c.NTest = 15
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Eps == 0 {
		c.Eps = 0.01
	}
	if len(c.Tables) == 0 {
		c.Tables = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig9) Run() (*Table, error) {
	c = c.defaults()
	kStar := core.KStar(c.K, c.Eps)
	tbl := &Table{
		Title:  f("Figure 9: LSH behaviour vs relative contrast (K=%d, eps=%.2g, K*=%d)", c.K, c.Eps, kStar),
		Header: []string{"dataset", "K*", "contrast", "tables", "maxSVerr", "candidates", "recall"},
		Notes: []string{
			"paper ordering at K*=100: deep (1.57) > gist (1.48) > dog-fish (1.17)",
			"low-contrast datasets need more tables/candidates/recall for the same SV error",
		},
	}
	rng := rand.New(rand.NewPCG(c.Seed, 23))
	for _, set := range fig9Sets(c.N, c.Seed) {
		train := set.Gen(set.N, c.Seed)
		test := set.Gen(c.NTest, c.Seed+1)
		contrast := lsh.EstimateContrast(train.X, train.X, kStar, 15, 100, rng)
		tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
		if err != nil {
			return nil, err
		}
		exact, err := runKernel(tps, 0, core.ExactClassKernel{N: train.N()})
		if err != nil {
			return nil, err
		}

		tuned := lsh.Tune(train.X, train.X, kStar, 0.1, 1, maxInts(c.Tables), c.Seed, rng)
		params := tuned.Params
		params.L = maxInts(c.Tables)
		index, err := lsh.Build(train.X, params, 0)
		if err != nil {
			return nil, err
		}
		for _, l := range c.Tables {
			approx := make([]float64, train.N())
			var recallSum float64
			var candSum int
			for j := 0; j < test.N(); j++ {
				res := index.QueryTables(test.X[j], kStar, l)
				correct := make([]bool, len(res.IDs))
				for r, id := range res.IDs {
					correct[r] = train.Labels[id] == test.Labels[j]
				}
				core.TruncatedFromRankingInto(res.IDs, correct, train.N(), c.K, c.Eps, approx)
				truth := knn.Neighbors(train.X, test.X[j], kStar, vec.L2)
				recallSum += lsh.Recall(truth, res.IDs)
				candSum += res.Candidates
			}
			vec.Scale(approx, 1/float64(test.N()))
			tbl.Rows = append(tbl.Rows, []string{
				set.Name, f("%d", kStar), f("%.4f", contrast.CK), f("%d", l),
				f("%.5f", stats.MaxAbsDiff(approx, exact)),
				f("%d", candSum/test.N()),
				f("%.3f", recallSum/float64(test.N())),
			})
		}
	}
	return tbl, nil
}

func maxInts(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Fig10 reproduces Figure 10: the LSH complexity exponent g(C_K*) as a
// function of the error target ε (panel a) and of the projection width r
// (panel b), computed on the deep-like stand-in with K = 1.
type Fig10 struct {
	N    int
	Eps  []float64
	Rs   []float64
	Seed uint64
}

func (c Fig10) defaults() Fig10 {
	if c.N == 0 {
		c.N = 20000
	}
	if len(c.Eps) == 0 {
		c.Eps = []float64{0.001, 0.01, 0.1, 1}
	}
	if len(c.Rs) == 0 {
		c.Rs = []float64{0.25, 0.5, 1, 2, 4, 8}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig10) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.DeepLike(c.N, c.Seed)
	rng := rand.New(rand.NewPCG(c.Seed, 29))
	tbl := &Table{
		Title:  "Figure 10a: contrast C_K* and exponent g(C_K*) vs eps (K=1, optimal r)",
		Header: []string{"eps", "K*", "contrast", "g(C_K*)", "opt-r", "sublinear?"},
		Notes:  []string{"g < 1 means the LSH retrieval is sublinear; the paper sees g > 1 only at eps=0.001"},
	}
	for _, eps := range c.Eps {
		kStar := core.KStar(1, eps)
		if kStar > c.N/2 {
			kStar = c.N / 2
		}
		contrast := lsh.EstimateContrast(train.X, train.X, kStar, 15, 100, rng)
		r, g := lsh.OptimalR(contrast.CK)
		tbl.Rows = append(tbl.Rows, []string{
			f("%g", eps), f("%d", kStar), f("%.4f", contrast.CK),
			f("%.4f", g), f("%.3f", r), f("%v", g < 1),
		})
	}
	// Panel (b): g vs r at K* = 10 (eps = 0.1).
	contrast := lsh.EstimateContrast(train.X, train.X, 10, 15, 100, rng)
	for _, r := range c.Rs {
		tbl.Rows = append(tbl.Rows, []string{
			"0.1 (panel b)", "10", f("%.4f", contrast.CK),
			f("%.4f", lsh.GExponent(contrast.CK, r)), f("%.3f", r), "",
		})
	}
	return tbl, nil
}
