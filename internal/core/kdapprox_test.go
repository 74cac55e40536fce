package core

import (
	"context"
	"testing"

	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/stats"
	"knnshapley/internal/vec"
)

// The kd-tree backend retrieves exactly, so its values must equal the
// sort-based truncation bit-for-bit.
func TestKDValuerMatchesTruncated(t *testing.T) {
	train := dataset.DeepLike(1500, 51)
	test := dataset.DeepLike(12, 52)
	v, err := NewKDValuer(train, 2, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v.KStar() != 10 {
		t.Fatalf("KStar = %d", v.KStar())
	}
	got, err := v.ValueEngine(context.Background(), test, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tps, err := knn.BuildTestPoints(knn.UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	want := runTPs(t, EngineConfig{}, tps, TruncatedClassKernel{N: train.N(), Eps: 0.1})
	assertClose(t, got, want, 1e-12, "kd vs truncated")

	// And the Theorem 2 contract against the exact values.
	exact := runTPs(t, EngineConfig{}, tps, ExactClassKernel{N: train.N()})
	if e := stats.MaxAbsDiff(got, exact); e > 0.1 {
		t.Fatalf("error %v > eps", e)
	}
}

func TestKDValuerValidation(t *testing.T) {
	train := dataset.MNISTLike(50, 1)
	if _, err := NewKDValuer(train, 0, 0.1, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewKDValuer(train, 1, 0, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	reg := dataset.Regression(dataset.RegressionConfig{N: 10, Dim: 3, Seed: 1})
	if _, err := NewKDValuer(reg, 1, 0.1, 0); err == nil {
		t.Error("regression accepted")
	}
	v, err := NewKDValuer(train, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ValueEngine(context.Background(), reg, EngineConfig{Workers: 1}); err == nil {
		t.Error("regression test set accepted")
	}
	short := dataset.Regression(dataset.RegressionConfig{N: 4, Dim: 2, Seed: 2})
	short.Targets = nil
	short.Labels = []int{0, 1, 0, 1}
	short.Classes = 2
	if _, err := v.ValueEngine(context.Background(), short, EngineConfig{Workers: 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}
