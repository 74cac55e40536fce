package experiments

import (
	"math/rand/v2"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/game"
	"knnshapley/internal/knn"
	"knnshapley/internal/logreg"
	"knnshapley/internal/stats"
	"knnshapley/internal/vec"
)

// Fig14 reproduces Figure 14 on the dog-fish stand-in (K = 3): (a) the
// top-valued points share the test point's class; (b) unweighted and
// weighted KNN Shapley values nearly coincide in high dimension; (c) the
// class whose training points sit closer to the other class's test points
// (the "fish" role) receives less value because its points mislead
// predictions.
type Fig14 struct {
	NTrain, NTest, K int
	Seed             uint64
}

func (c Fig14) defaults() Fig14 {
	if c.NTrain == 0 {
		c.NTrain = 300 // exact weighted valuation is N^K; 300^3-ish is the budget
	}
	if c.NTest == 0 {
		c.NTest = 100
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig14) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.DogFishLike(c.NTrain, c.Seed)
	test := dataset.DogFishLike(c.NTest, c.Seed+1)
	weight := knn.InverseDistance(0.5)

	unwTPs, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	wTPs, err := knn.BuildTestPoints(knn.WeightedClass, c.K, weight, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	unweighted, err := runKernel(unwTPs, 0, core.ExactClassKernel{N: train.N()})
	if err != nil {
		return nil, err
	}
	weighted, err := runKernel(wTPs, 0, core.WeightedKernel{N: train.N()})
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		Title:  f("Figure 14: dog-fish valuation (K=%d, N=%d)", c.K, c.NTrain),
		Header: []string{"panel", "quantity", "value"},
	}

	// (a) top valued points for the first test query share its label.
	sv0 := core.ExactClassSV(unwTPs[0])
	idx := vec.Argsort(negate(sv0))
	matches := 0
	for _, i := range idx[:5] {
		if train.Labels[i] == test.Labels[0] {
			matches++
		}
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"a", "top-5 points sharing the test label", f("%d/5", matches)})

	// (b) unweighted vs weighted agreement.
	tbl.Rows = append(tbl.Rows,
		[]string{"b", "pearson(unweighted, weighted)", f("%.4f", stats.Pearson(unweighted, weighted))},
		[]string{"b", "max |unweighted − weighted|", f("%.5f", stats.MaxAbsDiff(unweighted, weighted))},
	)

	// (c) per-class totals and inconsistent-top-K histogram: for each test
	// point, count top-K neighbors with a different label, per class.
	perClass := make([]float64, train.Classes)
	for i, v := range unweighted {
		perClass[train.Labels[i]] += v
	}
	inconsistent := make([]int, train.Classes)
	for j := 0; j < test.N(); j++ {
		nn := knn.Neighbors(train.X, test.X[j], c.K, vec.L2)
		for _, i := range nn {
			if train.Labels[i] != test.Labels[j] {
				inconsistent[train.Labels[i]]++
			}
		}
	}
	for cl := 0; cl < train.Classes; cl++ {
		tbl.Rows = append(tbl.Rows,
			[]string{"c", f("class %d total value", cl), f("%.5f", perClass[cl])},
			[]string{"c", f("class %d inconsistent top-K appearances", cl), f("%d", inconsistent[cl])},
		)
	}
	tbl.Notes = append(tbl.Notes,
		"the class with more inconsistent appearances should carry less total value")
	return tbl, nil
}

func negate(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = -v
	}
	return out
}

// Fig15 reproduces Figure 15 (dog-fish stand-in, K = 10): composite versus
// data-only games — (a) the analyst's share grows with the total utility,
// (b) contributor values correlate across the two games, (c/d) value trends
// as the number of contributors grows.
type Fig15 struct {
	K          int
	NTest      int
	NoiseGrid  []float64
	SizeGrid   []int
	BaseNTrain int
	Seed       uint64
}

func (c Fig15) defaults() Fig15 {
	if c.K == 0 {
		c.K = 10
	}
	if c.NTest == 0 {
		c.NTest = 100
	}
	if len(c.NoiseGrid) == 0 {
		c.NoiseGrid = []float64{0, 0.1, 0.2, 0.3, 0.4}
	}
	if len(c.SizeGrid) == 0 {
		c.SizeGrid = []int{200, 600, 1200, 1800}
	}
	if c.BaseNTrain == 0 {
		c.BaseNTrain = 600
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig15) Run() (*Table, error) {
	c = c.defaults()
	test := dataset.DogFishLike(c.NTest, c.Seed+1)
	tbl := &Table{
		Title:  f("Figure 15: data-only vs composite game (dog-fish stand-in, K=%d)", c.K),
		Header: []string{"panel", "setting", "utility", "analyst", "mean-seller", "min-seller", "max-seller", "corr"},
	}
	rng := rand.New(rand.NewPCG(c.Seed+9, 41))

	// (a) vary model quality via label noise; analyst SV should track the
	// total utility. The composite kernel returns the N seller shares
	// followed by the analyst's share at index N.
	for _, noise := range c.NoiseGrid {
		train := dataset.DogFishLike(c.BaseNTrain, c.Seed)
		if noise > 0 {
			train.FlipLabels(noise, rng)
		}
		tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
		if err != nil {
			return nil, err
		}
		comp, err := runKernel(tps, 0, core.CompositeKernel{M: train.N()})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			"a", f("label noise %.0f%%", 100*noise),
			f("%.4f", knn.AverageUtility(tps, allIdx(train.N()))),
			f("%.4f", comp[train.N()]), "", "", "", "",
		})
	}

	// (b) correlation of contributor values across the two games.
	train := dataset.DogFishLike(c.BaseNTrain, c.Seed)
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	dataOnly, err := runKernel(tps, 0, core.ExactClassKernel{N: train.N()})
	if err != nil {
		return nil, err
	}
	comp, err := runKernel(tps, 0, core.CompositeKernel{M: train.N()})
	if err != nil {
		return nil, err
	}
	tbl.Rows = append(tbl.Rows, []string{
		"b", "data-only vs composite sellers", "", "", "", "", "",
		f("%.4f", stats.Pearson(dataOnly, comp[:train.N()])),
	})

	// (c)/(d) trends with the number of contributors.
	for _, n := range c.SizeGrid {
		train := dataset.DogFishLike(n, c.Seed)
		tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
		if err != nil {
			return nil, err
		}
		comp, err := runKernel(tps, 0, core.CompositeKernel{M: n})
		if err != nil {
			return nil, err
		}
		dataOnly, err := runKernel(tps, 0, core.ExactClassKernel{N: n})
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(dataOnly)
		tbl.Rows = append(tbl.Rows, []string{
			"c/d", f("%d contributors", n),
			f("%.4f", knn.AverageUtility(tps, allIdx(n))),
			f("%.4f", comp[n]),
			f("%.6f", s.Mean), f("%.6f", s.Min), f("%.6f", s.Max), "",
		})
	}
	tbl.Notes = append(tbl.Notes,
		"analyst share grows with utility and with contributor count; per-contributor value shrinks")
	return tbl, nil
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Fig16 reproduces Figure 16: the KNN Shapley value as a proxy for a
// logistic-regression model's Shapley value on the Iris stand-in; the two
// valuations should correlate positively.
//
// The real Iris table contains genuinely confusing points in the
// versicolor/virginica overlap that dominate both models' valuations; the
// Gaussian stand-in is cleaner, so a small label-noise fraction restores
// that population of low-value points (set NoiseFrac to 0 via a negative
// value to disable).
type Fig16 struct {
	NTrain, NTest, K int
	Permutations     int
	NoiseFrac        float64
	Seed             uint64
}

func (c Fig16) defaults() Fig16 {
	if c.NTrain == 0 {
		c.NTrain = 60
	}
	if c.NTest == 0 {
		c.NTest = 45
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.Permutations == 0 {
		c.Permutations = 800
	}
	if c.NoiseFrac == 0 {
		c.NoiseFrac = 0.15
	} else if c.NoiseFrac < 0 {
		c.NoiseFrac = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig16) Run() (*Table, error) {
	c = c.defaults()
	train := dataset.IrisLike(c.NTrain, c.Seed)
	test := dataset.IrisLike(c.NTest, c.Seed+1)
	if c.NoiseFrac > 0 {
		train.FlipLabels(c.NoiseFrac, rand.New(rand.NewPCG(c.Seed+7, 53)))
	}
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, c.K, nil, vec.L2, train, test)
	if err != nil {
		return nil, err
	}
	knnSV, err := runKernel(tps, 0, core.ExactClassKernel{N: train.N()})
	if err != nil {
		return nil, err
	}

	// Logistic-regression Shapley values via permutation sampling with full
	// retraining per prefix — the generic (expensive) path the paper
	// contrasts against.
	lrUtility := game.Func{Players: train.N(), F: func(s []int) float64 {
		if len(s) == 0 {
			return 0
		}
		sub := train.Subset(s)
		sub.Classes = train.Classes
		m, err := logreg.Train(sub, logreg.Config{Epochs: 12, Seed: c.Seed + 3})
		if err != nil {
			return 0
		}
		return m.Accuracy(test)
	}}
	rng := rand.New(rand.NewPCG(c.Seed+4, 43))
	lrSV := game.MonteCarloShapley(lrUtility, c.Permutations, rng)

	tbl := &Table{
		Title:  f("Figure 16: KNN SV as a proxy for logistic-regression SV (Iris stand-in, K=%d)", c.K),
		Header: []string{"quantity", "value"},
		Notes: []string{
			f("LR values from %d MC permutations with full retraining per prefix", c.Permutations),
			"the paper reports a clear positive correlation on Iris",
		},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"pearson(KNN SV, LR SV)", f("%.4f", stats.Pearson(knnSV, lrSV))},
		[]string{"spearman(KNN SV, LR SV)", f("%.4f", stats.Spearman(knnSV, lrSV))},
		[]string{"top-10 overlap", f("%d/10", topOverlap(knnSV, lrSV, 10))},
	)
	return tbl, nil
}

func topOverlap(a, b []float64, k int) int {
	ia := vec.Argsort(negate(a))
	ib := vec.Argsort(negate(b))
	if k > len(ia) {
		k = len(ia)
	}
	set := map[int]bool{}
	for _, i := range ia[:k] {
		set[i] = true
	}
	n := 0
	for _, i := range ib[:k] {
		if set[i] {
			n++
		}
	}
	return n
}
