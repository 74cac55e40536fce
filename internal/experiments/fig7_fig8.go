package experiments

import (
	"math/rand/v2"
	"time"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/logreg"
	"knnshapley/internal/lsh"
	"knnshapley/internal/vec"
)

// benchmarkSet names one of the Figure 7/8 corpora with its (possibly
// scaled) size.
type benchmarkSet struct {
	Name string
	Gen  func(n int, seed uint64) *dataset.Dataset
	N    int
}

func fig7Sets(scale float64) []benchmarkSet {
	if scale <= 0 {
		scale = 1.0 / 100 // default keeps the sweep under a minute
	}
	sets := []benchmarkSet{
		{"cifar10-like", dataset.CIFAR10Like, int(60000 * scale)},
		{"imagenet-like", dataset.ImageNetLike, int(1000000 * scale)},
		{"yahoo10m-like", dataset.Yahoo10MLike, int(10000000 * scale)},
	}
	for i := range sets {
		if sets[i].N < 1000 {
			sets[i].N = 1000
		}
	}
	// The 1000-class stand-in needs a minimum per-class budget to be a
	// meaningful classification task at any scale.
	if sets[1].N < 10000 {
		sets[1].N = 10000
	}
	return sets
}

// Fig7 reproduces Figure 7 (and Figure 17 for K = 2, 5): the per-test-point
// runtime of the exact algorithm versus the LSH approximation, with the
// estimated relative contrast of each dataset (eps = delta = 0.1).
type Fig7 struct {
	Ks    []int
	NTest int
	// Scale multiplies the paper's dataset sizes (1.0 = full 6e4/1e6/1e7).
	Scale float64
	Seed  uint64
}

func (c Fig7) defaults() Fig7 {
	if len(c.Ks) == 0 {
		c.Ks = []int{1}
	}
	if c.NTest == 0 {
		c.NTest = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig7) Run() (*Table, error) {
	c = c.defaults()
	tbl := &Table{
		Title:  "Figure 7/17: exact vs LSH runtime per test point (eps=delta=0.1)",
		Header: []string{"dataset", "size", "contrast", "K", "exact", "lsh", "speedup"},
		Notes: []string{
			f("sizes scaled by %.4g relative to the paper's 6e4/1e6/1e7", c.scaleOrDefault()),
			"exact includes the O(N·d) distance scan of each test point, as the paper's per-test-point cost does; lsh includes projection and hashing",
		},
	}
	rng := rand.New(rand.NewPCG(c.Seed, 11))
	for _, set := range fig7Sets(c.Scale) {
		train := set.Gen(set.N, c.Seed)
		test := set.Gen(c.NTest, c.Seed+1)
		contrast := lsh.EstimateContrast(train.X, train.X, 100, 15, 100, rng)
		for _, k := range c.Ks {
			var err error
			exactTime := timed(func() {
				var tps []*knn.TestPoint
				if tps, err = knn.BuildTestPoints(knn.UnweightedClass, k, nil, vec.L2, train, test); err == nil {
					_, err = runKernel(tps, 1, core.ExactClassKernel{N: train.N()})
				}
			}) / time.Duration(c.NTest)
			if err != nil {
				return nil, err
			}
			v, err := core.NewLSHValuer(train, core.LSHConfig{
				K: k, Eps: 0.1, Delta: 0.1, Seed: c.Seed, MaxTables: 64, Workers: 1,
			})
			if err != nil {
				return nil, err
			}
			lshTime := timed(func() {
				for j := 0; j < c.NTest; j++ {
					v.ValueOne(test.X[j], test.Labels[j])
				}
			}) / time.Duration(c.NTest)
			tbl.Rows = append(tbl.Rows, []string{
				set.Name, f("%d", set.N), f("%.4f", contrast.CK), f("%d", k),
				ms(exactTime), ms(lshTime),
				f("%.1fx", float64(exactTime)/float64(lshTime)),
			})
		}
	}
	return tbl, nil
}

func (c Fig7) scaleOrDefault() float64 {
	if c.Scale <= 0 {
		return 1.0 / 100
	}
	return c.Scale
}

// Fig8 reproduces Figure 8: prediction accuracy of KNN (K = 1, 2, 5) versus
// logistic regression on the deep-feature stand-ins.
type Fig8 struct {
	Scale float64
	NTest int
	Seed  uint64
}

func (c Fig8) defaults() Fig8 {
	if c.NTest == 0 {
		c.NTest = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the experiment.
func (c Fig8) Run() (*Table, error) {
	c = c.defaults()
	tbl := &Table{
		Title:  "Figure 8: KNN vs logistic regression accuracy on deep-feature stand-ins",
		Header: []string{"dataset", "size", "1NN", "2NN", "5NN", "logistic"},
		Notes:  []string{"paper: CIFAR-10 81/83/80/87, ImageNet 77/73/84/82, Yahoo10m 90/96/98/96 (%)"},
	}
	for _, set := range fig7Sets(c.Scale) {
		train := set.Gen(set.N, c.Seed)
		test := set.Gen(c.NTest, c.Seed+1)
		row := []string{set.Name, f("%d", set.N)}
		for _, k := range []int{1, 2, 5} {
			cls, err := knn.NewClassifier(train, k, vec.L2, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, f("%.0f%%", 100*cls.Accuracy(test)))
		}
		lrTrain := train
		if lrTrain.N() > 20000 {
			// Cap SGD cost on the large stand-ins; accuracy saturates well
			// before this.
			idx := make([]int, 20000)
			rng := rand.New(rand.NewPCG(c.Seed+5, 17))
			for i := range idx {
				idx[i] = rng.IntN(train.N())
			}
			lrTrain = train.Subset(idx)
			lrTrain.Classes = train.Classes
		}
		m, err := logreg.Train(lrTrain, logreg.Config{Epochs: 20, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		row = append(row, f("%.0f%%", 100*m.Accuracy(test)))
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}
