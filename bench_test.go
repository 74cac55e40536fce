// Benchmarks: one per table/figure of the paper's evaluation (Section 6 and
// Appendix A), sized to finish quickly under `go test -bench=.`. Run
// cmd/svbench for the full experiment tables with shape assertions; these
// benches track the cost of the computational kernel behind each figure.
package knnshapley

import (
	"context"
	"fmt"
	"testing"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/logreg"
	"knnshapley/internal/lsh"
	"knnshapley/internal/stats"
	"knnshapley/internal/vec"
)

func logregTrain(train *Dataset) (*logreg.Model, error) {
	return logreg.Train(train, logreg.Config{Epochs: 12, Seed: 1})
}

func buildTPs(b *testing.B, train, test *Dataset, k int) []*knn.TestPoint {
	b.Helper()
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, k, nil, vec.L2, train, test)
	if err != nil {
		b.Fatal(err)
	}
	return tps
}

// runTPs averages kern over prebuilt test points on the engine with the
// given worker count (0 = all cores).
func runTPs(b *testing.B, workers int, tps []*knn.TestPoint, kern core.Kernel[*knn.TestPoint]) {
	b.Helper()
	eng := core.NewEngine[*knn.TestPoint](core.EngineConfig{Workers: workers})
	if _, err := eng.Run(context.Background(), core.NewSliceSource(tps), kern); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig5Convergence: the Monte-Carlo estimation kernel of Figure 5 —
// 100 permutations over 1000 training points.
func BenchmarkFig5Convergence(b *testing.B) {
	tps := buildTPs(b, dataset.MNISTLike(1000, 1), dataset.MNISTLike(10, 2), 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ImprovedMC(tps, core.MCConfig{Bound: core.BoundFixed, T: 100, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6RuntimeScaling: the exact algorithm's per-test-point cost at
// the Figure 6 training sizes (quasi-linear growth is the headline claim).
func BenchmarkFig6RuntimeScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			train := dataset.MNISTLike(n, 1)
			test := dataset.MNISTLike(1, 2)
			tps := buildTPs(b, train, test, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ExactClassSV(tps[0])
			}
		})
	}
}

// BenchmarkFig7ExactVsLSH: exact vs LSH valuation of one test point on the
// CIFAR-10-scale stand-in (K = 1, eps = delta = 0.1).
func BenchmarkFig7ExactVsLSH(b *testing.B) {
	train := dataset.CIFAR10Like(60000, 1)
	test := dataset.CIFAR10Like(8, 2)
	tps := buildTPs(b, train, test, 1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ExactClassSV(tps[i%len(tps)])
		}
	})
	v, err := core.NewLSHValuer(train, core.LSHConfig{K: 1, Eps: 0.1, Delta: 0.1, Seed: 1, MaxTables: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % test.N()
			v.ValueOne(test.X[j], test.Labels[j])
		}
	})
}

// BenchmarkFig8Accuracy: the KNN prediction kernel behind the Figure 8
// accuracy table.
func BenchmarkFig8Accuracy(b *testing.B) {
	train := dataset.CIFAR10Like(20000, 1)
	test := dataset.CIFAR10Like(64, 2)
	cls, err := knn.NewClassifier(train, 5, vec.L2, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Predict(test.X[i%test.N()])
	}
}

// BenchmarkFig9LSHContrast: LSH K*-NN queries on the three contrast regimes
// of Figure 9 — lower contrast means more candidates per query.
func BenchmarkFig9LSHContrast(b *testing.B) {
	sets := []struct {
		name string
		gen  func(int, uint64) *dataset.Dataset
	}{
		{"deep", dataset.DeepLike}, {"gist", dataset.GistLike}, {"dogfish", dataset.DogFishLike},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			train := set.gen(20000, 1)
			test := set.gen(32, 2)
			v, err := core.NewLSHValuer(train, core.LSHConfig{K: 2, Eps: 0.1, Delta: 0.1, Seed: 1, MaxTables: 64})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % test.N()
				v.ValueOne(test.X[j], test.Labels[j])
			}
		})
	}
}

// BenchmarkFig10LSHTheory: the collision-probability/exponent math of
// Figure 10.
func BenchmarkFig10LSHTheory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lsh.OptimalR(1.2 + float64(i%10)*0.1)
	}
}

// BenchmarkFig11SampleComplexity: solving the Bennett budget (Eq. 32) for
// 1e6 points.
func BenchmarkFig11SampleComplexity(b *testing.B) {
	qs := stats.KNNNonzeroProb(1000000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.BennettPermutations(qs, 0.2, 0.05, 0.1)
	}
}

// BenchmarkFig12Weighted: the exact weighted valuation (Theorem 7) at the
// Figure 12 sizes; runtime grows polynomially with N.
func BenchmarkFig12Weighted(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			train := dataset.DogFishLike(n, 1)
			test := dataset.DogFishLike(1, 2)
			tps, err := knn.BuildTestPoints(knn.WeightedClass, 3, knn.InverseDistance(0.5), vec.L2, train, test)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ExactWeightedSV(tps[0])
			}
		})
	}
}

// BenchmarkFig13MultiSeller: the exact seller valuation (Theorem 8) at the
// Figure 13 seller counts; total data fixed.
func BenchmarkFig13MultiSeller(b *testing.B) {
	for _, m := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			train := dataset.MNISTLike(600, 1)
			test := dataset.MNISTLike(1, 2)
			owners := dataset.Sellers(train.N(), m)
			tps := buildTPs(b, train, test, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MultiSellerSV(tps[0], owners, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14DogFish: the Figure 14 workload — exact unweighted plus
// exact weighted values on the dog-fish stand-in.
func BenchmarkFig14DogFish(b *testing.B) {
	train := dataset.DogFishLike(150, 1)
	test := dataset.DogFishLike(4, 2)
	unw := buildTPs(b, train, test, 3)
	w, err := knn.BuildTestPoints(knn.WeightedClass, 3, knn.InverseDistance(0.5), vec.L2, train, test)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTPs(b, 0, unw, core.ExactClassKernel{N: train.N()})
		runTPs(b, 0, w, core.WeightedKernel{N: train.N()})
	}
}

// BenchmarkFig15Composite: the composite-game recursion of Figure 15
// (Theorem 9) on 1800 contributors.
func BenchmarkFig15Composite(b *testing.B) {
	tps := buildTPs(b, dataset.DogFishLike(1800, 1), dataset.DogFishLike(8, 2), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tp := range tps {
			core.CompositeClassSV(tp)
		}
	}
}

// BenchmarkFig16LRProxy: one logistic-regression retraining step — the unit
// of work the Figure 16 MC valuation repeats thousands of times, versus the
// KNN surrogate that needs none.
func BenchmarkFig16LRProxy(b *testing.B) {
	train := dataset.IrisLike(60, 1)
	test := dataset.IrisLike(30, 2)
	b.Run("lr-retrain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := logregTrain(train)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.Accuracy(test)
		}
	})
	b.Run("knn-exact", func(b *testing.B) {
		tps := buildTPs(b, train, test, 5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runTPs(b, 1, tps, core.ExactClassKernel{N: train.N()})
		}
	})
}

// BenchmarkFig17ExactVsLSHK25: the Appendix A table — exact vs LSH at
// K = 2 and K = 5.
func BenchmarkFig17ExactVsLSHK25(b *testing.B) {
	train := dataset.CIFAR10Like(60000, 1)
	test := dataset.CIFAR10Like(8, 2)
	for _, k := range []int{2, 5} {
		tps := buildTPs(b, train, test, k)
		b.Run(fmt.Sprintf("exact-K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ExactClassSV(tps[i%len(tps)])
			}
		})
		v, err := core.NewLSHValuer(train, core.LSHConfig{K: k, Eps: 0.1, Delta: 0.1, Seed: 1, MaxTables: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("lsh-K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % test.N()
				v.ValueOne(test.X[j], test.Labels[j])
			}
		})
	}
}

// BenchmarkAblationHeapIncrement: Algorithm 2's heap trick vs naive
// re-evaluation per permutation (same estimates, different cost).
func BenchmarkAblationHeapIncrement(b *testing.B) {
	tps := buildTPs(b, dataset.MNISTLike(2000, 1), dataset.MNISTLike(1, 2), 5)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ImprovedMC(tps, core.MCConfig{Bound: core.BoundFixed, T: 5, Seed: uint64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		v, err := New(dataset.MNISTLike(2000, 1), WithK(5))
		if err != nil {
			b.Fatal(err)
		}
		test := dataset.MNISTLike(1, 2)
		for i := 0; i < b.N; i++ {
			if _, err := v.BaselineMonteCarlo(context.Background(), test, 0.1, 0.1, 5, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTruncation: full Theorem 1 recursion vs the Theorem 2
// truncation (both still sort all N distances).
func BenchmarkAblationTruncation(b *testing.B) {
	tps := buildTPs(b, dataset.MNISTLike(100000, 1), dataset.MNISTLike(1, 2), 1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ExactClassSV(tps[0])
		}
	})
	b.Run("truncated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.TruncatedClassSV(tps[0], 0.1)
		}
	})
}

// BenchmarkEngineStreamingVsEager: the tentpole comparison — streaming
// batched execution (Exact: blocked flat-storage distance tiles, BatchSize
// test points in flight) vs the seed's eager path (materialize every
// TestPoint, then fan out). Same outputs, different peak memory and cache
// behavior; -benchmem shows the allocation gap.
func BenchmarkEngineStreamingVsEager(b *testing.B) {
	train := dataset.MNISTLike(10000, 1)
	test := dataset.MNISTLike(64, 2)
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := New(train, WithK(5), WithBatchSize(16))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := v.Exact(context.Background(), test); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tps, err := knn.BuildTestPoints(knn.UnweightedClass, 5, nil, vec.L2, train, test)
			if err != nil {
				b.Fatal(err)
			}
			runTPs(b, 0, tps, core.ExactClassKernel{N: train.N()})
		}
	})
}

// BenchmarkAblationParallel: serial vs parallel test-point fan-out.
func BenchmarkAblationParallel(b *testing.B) {
	tps := buildTPs(b, dataset.MNISTLike(20000, 1), dataset.MNISTLike(16, 2), 5)
	kern := core.ExactClassKernel{N: 20000}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTPs(b, 1, tps, kern)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTPs(b, 0, tps, kern)
		}
	})
}
