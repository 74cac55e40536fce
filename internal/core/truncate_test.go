package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/stats"
	"knnshapley/internal/vec"
)

func TestKStar(t *testing.T) {
	if got := KStar(5, 0.1); got != 10 {
		t.Fatalf("KStar(5, 0.1) = %d want 10", got)
	}
	if got := KStar(20, 0.1); got != 20 {
		t.Fatalf("KStar(20, 0.1) = %d want 20", got)
	}
	if got := KStar(1, 0.3); got != 4 {
		t.Fatalf("KStar(1, 0.3) = %d want 4", got)
	}
	// 1/eps past math.MaxInt saturates instead of wrapping to MinInt.
	for _, eps := range []float64{1e-19, 1e-30, math.SmallestNonzeroFloat64} {
		if got := KStar(5, eps); got != math.MaxInt {
			t.Fatalf("KStar(5, %g) = %d want math.MaxInt", eps, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("eps <= 0 accepted")
		}
	}()
	KStar(1, 0)
}

// Theorem 2's contract: max_i |ŝ_i − s_i| ≤ eps, and the pairwise
// differences of the K* nearest match exactly.
func TestTruncatedClassSVErrorBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(2424, 24))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.IntN(100)
		k := 1 + rng.IntN(5)
		eps := []float64{0.05, 0.1, 0.3}[rng.IntN(3)]
		tp := randomClassTP(n, 3, k, rng)
		exact := ExactClassSV(tp)
		approx := TruncatedClassSV(tp, eps)
		if got := stats.MaxAbsDiff(exact, approx); got > eps+1e-12 {
			t.Fatalf("trial %d: max error %v > eps %v (n=%d k=%d)", trial, got, eps, n, k)
		}
		order := tp.Order()
		kStar := KStar(k, eps)
		for r := 0; r+1 < kStar-1 && r+1 < n; r++ {
			de := exact[order[r]] - exact[order[r+1]]
			da := approx[order[r]] - approx[order[r+1]]
			if math.Abs(de-da) > 1e-12 {
				t.Fatalf("difference at rank %d not preserved: %v vs %v", r+1, da, de)
			}
		}
	}
}

func TestTruncatedDegeneratesToExact(t *testing.T) {
	// K* >= N: truncation must reproduce the exact values bit-for-bit.
	rng := rand.New(rand.NewPCG(2525, 25))
	tp := randomClassTP(8, 2, 2, rng)
	exact := ExactClassSV(tp)
	approx := TruncatedClassSV(tp, 0.01) // K* = 100 > 8
	assertClose(t, approx, exact, 0, "degenerate truncation")

	// Including N < K, where Theorem 1's base case is 1[correct]/max(N, K),
	// not 1[correct]/N: the truncated values must still sum to
	// ν(I) − ν(∅) like the exact ones.
	for _, n := range []int{1, 3, 8} {
		for _, k := range []int{2, 5, 12} {
			for trial := 0; trial < 4; trial++ {
				tp := randomClassTP(n, 2, k, rng)
				requireSameBits(t, ExactClassSV(tp), TruncatedClassSV(tp, 0.01), "truncated vs exact")
			}
		}
	}
}

func TestTruncatedZeroBeyondKStar(t *testing.T) {
	rng := rand.New(rand.NewPCG(2626, 26))
	tp := randomClassTP(50, 3, 2, rng)
	eps := 0.2 // K* = 5
	approx := TruncatedClassSV(tp, eps)
	order := tp.Order()
	for r := KStar(2, eps) - 1; r < 50; r++ {
		if approx[order[r]] != 0 {
			t.Fatalf("rank %d beyond K* has value %v", r+1, approx[order[r]])
		}
	}
}

func TestLSHValuerMatchesTruncated(t *testing.T) {
	train := dataset.DeepLike(1200, 31)
	test := dataset.DeepLike(15, 32)
	cfg := LSHConfig{K: 2, Eps: 0.1, Delta: 0.1, Seed: 9}
	v, err := NewLSHValuer(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ValueEngine(context.Background(), test, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	exact := runTPs(t, EngineConfig{}, tps, ExactClassKernel{N: train.N()})
	// (eps, delta) contract against the exact values; deep-like data has
	// high contrast so retrieval is near-perfect and the truncation error
	// dominates.
	if err := stats.MaxAbsDiff(got, exact); err > cfg.Eps {
		t.Fatalf("LSH max error %v > eps %v (tuned %+v)", err, cfg.Eps, v.Tuned())
	}
}

func TestLSHValuerStreaming(t *testing.T) {
	train := dataset.DeepLike(800, 33)
	v, err := NewLSHValuer(train, LSHConfig{K: 1, Eps: 0.2, Delta: 0.1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if v.KStar() != 5 {
		t.Fatalf("KStar = %d want 5", v.KStar())
	}
	// Sequential queries accumulate like an average.
	q := dataset.DeepLike(4, 34)
	acc := make([]float64, train.N())
	for i := range q.X {
		sv := v.ValueOne(q.X[i], q.Labels[i])
		vec.AXPY(acc, 1, sv)
	}
	vec.Scale(acc, 0.25)
	batch, err := v.ValueEngine(context.Background(), q, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, acc, batch, 1e-12, "streaming vs batch")
}

func TestLSHValuerValidation(t *testing.T) {
	train := dataset.MNISTLike(50, 1)
	if _, err := NewLSHValuer(train, LSHConfig{K: 0, Eps: 0.1, Delta: 0.1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewLSHValuer(train, LSHConfig{K: 1, Eps: 0, Delta: 0.1}); err == nil {
		t.Error("eps=0 accepted")
	}
	reg := dataset.Regression(dataset.RegressionConfig{N: 20, Dim: 4, Seed: 2})
	if _, err := NewLSHValuer(reg, LSHConfig{K: 1, Eps: 0.1, Delta: 0.1}); err == nil {
		t.Error("regression accepted")
	}
	v, err := NewLSHValuer(train, LSHConfig{K: 1, Eps: 0.1, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.Regression(dataset.RegressionConfig{N: 5, Dim: train.Dim(), Seed: 3})
	if _, err := v.ValueEngine(context.Background(), bad, EngineConfig{}); err == nil {
		t.Error("regression test set accepted")
	}
}

// The engine must visit every item exactly once for any worker count and
// batch size (the successor of the seed's parallelFor test).
func TestEngineVisitsEveryItem(t *testing.T) {
	for _, cfg := range []EngineConfig{
		{Workers: 1}, {Workers: 3}, {Workers: 8, BatchSize: 5}, {Workers: 100, BatchSize: 1},
	} {
		items := make([]int, 57)
		for i := range items {
			items[i] = i
		}
		eng := NewEngine[int](cfg)
		sv, count, err := eng.RunSum(context.Background(), NewSliceSource(items), hitKernel{n: len(items)})
		if err != nil {
			t.Fatal(err)
		}
		if count != len(items) {
			t.Fatalf("cfg=%+v: %d items counted, want %d", cfg, count, len(items))
		}
		for i, h := range sv {
			if h != 1 {
				t.Fatalf("cfg=%+v: index %d visited %v times", cfg, i, h)
			}
		}
	}
}

// hitKernel marks each item's own index; the engine's sum then counts
// visits per index.
type hitKernel struct{ n int }

func (k hitKernel) OutLen() int { return k.n }
func (k hitKernel) Compute(_ context.Context, _ int, item int, _ *Scratch, dst []float64) error {
	dst[item]++
	return nil
}

// Exact and truncated multi must agree with per-test averaging.
func TestMultiAveragingConsistency(t *testing.T) {
	train := dataset.MNISTLike(200, 41)
	test := dataset.MNISTLike(8, 42)
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, 3, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	multi := runTPs(t, EngineConfig{Workers: 4}, tps, ExactClassKernel{N: train.N()})
	manual := make([]float64, train.N())
	for _, tp := range tps {
		vec.AXPY(manual, 1, ExactClassSV(tp))
	}
	vec.Scale(manual, 1/float64(len(tps)))
	assertClose(t, multi, manual, 1e-12, "multi averaging")
}
