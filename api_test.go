package knnshapley

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
)

func smallSplit(t *testing.T) (*Dataset, *Dataset) {
	t.Helper()
	return SynthMNIST(150, 1), SynthMNIST(10, 2)
}

func TestExactClassificationEndToEnd(t *testing.T) {
	train, test := smallSplit(t)
	sv, err := Exact(train, test, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != train.N() {
		t.Fatalf("%d values for %d points", len(sv), train.N())
	}
	all := make([]int, train.N())
	for i := range all {
		all[i] = i
	}
	full, err := Utility(train, test, Config{K: 3}, all)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Utility(train, test, Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range sv {
		total += v
	}
	if math.Abs(total-(full-empty)) > 1e-9 {
		t.Fatalf("group rationality: Σsv=%v, ν(I)−ν(∅)=%v", total, full-empty)
	}
}

// The streamed engine path must return the same values for every batch
// size and worker count (the batches only change memory, never math).
func TestExactBatchSizeInvariance(t *testing.T) {
	train, test := smallSplit(t)
	want, err := Exact(train, test, Config{K: 3, Workers: 1, BatchSize: test.N()})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{K: 3, BatchSize: 1},
		{K: 3, BatchSize: 3, Workers: 2},
		{K: 3, BatchSize: 64, Workers: 8},
	} {
		got, err := Exact(train, test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("cfg %+v", cfg), want, got)
	}

	// A training set large enough that each batch's distance scan
	// (16 four-query groups × N × dim 64) and ordered reduce (64 items × N)
	// split over every worker count below.
	train, test = SynthMNIST(20000, 3), SynthMNIST(70, 4)
	ctx := context.Background()
	var wantExact, wantTrunc []float64
	for _, workers := range []int{1, 2, 4} {
		v, err := New(train, WithK(5), WithWorkers(workers), WithBatchSize(64))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := v.Exact(ctx, test)
		if err != nil {
			t.Fatal(err)
		}
		trunc, err := v.Truncated(ctx, test, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			wantExact, wantTrunc = exact.Values, trunc.Values
			continue
		}
		assertBitIdentical(t, fmt.Sprintf("exact, %d workers", workers), wantExact, exact.Values)
		assertBitIdentical(t, fmt.Sprintf("truncated, %d workers", workers), wantTrunc, trunc.Values)
	}
}

func TestExactRegressionEndToEnd(t *testing.T) {
	train := SynthRegression(100, 4, 0.1, 1)
	test := SynthRegression(8, 4, 0.1, 2)
	sv, err := Exact(train, test, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != 100 {
		t.Fatalf("%d values", len(sv))
	}
}

func TestExactWeightedEndToEnd(t *testing.T) {
	train := SynthMNIST(25, 3)
	test := SynthMNIST(3, 4)
	sv, err := Exact(train, test, Config{K: 2, Weight: InverseDistance(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(train, test, Config{K: 2, Weight: InverseDistance(0.5)},
		MCOptions{Bound: Fixed, T: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if math.Abs(sv[i]-mc.SV[i]) > 0.1 {
			t.Fatalf("exact %v vs MC %v at %d", sv[i], mc.SV[i], i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	train, test := smallSplit(t)
	if _, err := Exact(train, test, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	reg := SynthRegression(10, 4, 0.1, 1)
	if _, err := Exact(train, reg, Config{K: 1}); err == nil {
		t.Error("mixed train/test kinds accepted")
	}
	if _, err := Truncated(reg, reg, Config{K: 1}, 0.1); err == nil {
		t.Error("regression accepted by Truncated")
	}
	if _, err := NewLSHValuer(train, Config{K: 1, Weight: InverseDistance(1)}, 0.1, 0.1, 1); err == nil {
		t.Error("weighted accepted by LSH")
	}
	if _, err := NewLSHValuer(train, Config{K: 1, Metric: Cosine}, 0.1, 0.1, 1); err == nil {
		t.Error("cosine accepted by LSH")
	}
}

func TestTruncatedWithinEps(t *testing.T) {
	train, test := smallSplit(t)
	exact, err := Exact(train, test, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.1
	approx, err := Truncated(train, test, Config{K: 2}, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-approx[i]) > eps {
			t.Fatalf("error %v > eps at %d", exact[i]-approx[i], i)
		}
	}
}

func TestLSHValuerEndToEnd(t *testing.T) {
	train := SynthDeep(1000, 7)
	test := SynthDeep(10, 8)
	v, err := NewLSHValuer(train, Config{K: 2}, 0.1, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v.KStar() != 10 {
		t.Fatalf("KStar = %d", v.KStar())
	}
	if v.EstimatedContrast() <= 1 {
		t.Fatalf("contrast %v", v.EstimatedContrast())
	}
	sv, err := v.Value(test)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(train, test, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if math.Abs(sv[i]-exact[i]) > 0.1 {
			t.Fatalf("LSH error %v at %d", sv[i]-exact[i], i)
		}
	}
}

func TestKDValuerEndToEnd(t *testing.T) {
	train := SynthDeep(800, 11)
	test := SynthDeep(10, 12)
	v, err := NewKDValuer(train, Config{K: 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if v.KStar() != 10 {
		t.Fatalf("KStar = %d", v.KStar())
	}
	sv, err := v.Value(test)
	if err != nil {
		t.Fatal(err)
	}
	// The kd-tree retrieval is exact, so the result equals the sort-based
	// truncation bit-for-bit.
	want, err := Truncated(train, test, Config{K: 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if sv[i] != want[i] {
			t.Fatalf("kd vs truncated at %d: %v != %v", i, sv[i], want[i])
		}
	}
	one := v.ValueOne(test.X[0], test.Labels[0])
	if len(one) != train.N() {
		t.Fatalf("ValueOne length %d", len(one))
	}
	if _, err := NewKDValuer(train, Config{K: 1, Metric: Cosine}, 0.1); err == nil {
		t.Error("cosine accepted by kd-tree backend")
	}
	if _, err := NewKDValuer(train, Config{K: 1, Weight: InverseDistance(1)}, 0.1); err == nil {
		t.Error("weighted accepted by kd-tree backend")
	}
}

func TestMonteCarloBudgets(t *testing.T) {
	train, test := smallSplit(t)
	ben, err := MonteCarlo(train, test, Config{K: 5}, MCOptions{Eps: 0.1, Delta: 0.1, Bound: Bennett, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hoef, err := MonteCarlo(train, test, Config{K: 5}, MCOptions{Eps: 0.1, Delta: 0.1, Bound: Hoeffding, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ben.Budget >= hoef.Budget {
		t.Fatalf("Bennett %d >= Hoeffding %d", ben.Budget, hoef.Budget)
	}
}

func TestBaselineMonteCarloRuns(t *testing.T) {
	train := SynthMNIST(40, 5)
	test := SynthMNIST(3, 6)
	rep, err := BaselineMonteCarlo(train, test, Config{K: 1}, 0.2, 0.2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Permutations == 0 || len(rep.SV) != 40 {
		t.Fatalf("report %+v", rep)
	}
}

func TestSellerValuesExactVsMC(t *testing.T) {
	train := SynthMNIST(30, 7)
	test := SynthMNIST(4, 8)
	owners := AssignSellers(train.N(), 5)
	exact, err := SellerValues(train, test, owners, 5, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := SellerValuesMC(train, test, owners, 5, Config{K: 2},
		MCOptions{Bound: Fixed, T: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := range exact {
		if math.Abs(exact[j]-mc.SV[j]) > 0.05 {
			t.Fatalf("seller %d: exact %v vs MC %v", j, exact[j], mc.SV[j])
		}
	}
}

func TestCompositeValuesPointLevel(t *testing.T) {
	train, test := smallSplit(t)
	rep, err := CompositeValues(train, test, nil, 0, Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, train.N())
	for i := range all {
		all[i] = i
	}
	full, _ := Utility(train, test, Config{K: 10}, all)
	total := rep.Analyst
	for _, v := range rep.Sellers {
		total += v
	}
	if math.Abs(total-full) > 1e-9 {
		t.Fatalf("composite total %v != ν(I) %v", total, full)
	}
	if rep.Analyst < full/2 {
		t.Fatalf("analyst %v below half of %v", rep.Analyst, full)
	}
}

func TestCompositeValuesSellerLevel(t *testing.T) {
	train := SynthMNIST(24, 9)
	test := SynthMNIST(3, 10)
	owners := AssignSellers(train.N(), 4)
	rep, err := CompositeValues(train, test, owners, 4, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sellers) != 4 {
		t.Fatalf("%d sellers", len(rep.Sellers))
	}
}

func TestMonetize(t *testing.T) {
	sv := []float64{0.1, 0.3, 0.6}
	money := Monetize(sv, 100, 30)
	want := []float64{20, 40, 70}
	for i := range want {
		if math.Abs(money[i]-want[i]) > 1e-12 {
			t.Fatalf("Monetize = %v want %v", money, want)
		}
	}
	if out := Monetize(nil, 1, 1); len(out) != 0 {
		t.Fatal("empty monetize")
	}
}

func TestDatasetConstructorsAndCSV(t *testing.T) {
	d, err := NewClassificationDataset([][]float64{{1, 2}, {3, 4}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Classes != 2 {
		t.Fatalf("classes = %d", d.Classes)
	}
	if _, err := NewClassificationDataset([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched labels accepted")
	}
	r, err := NewRegressionDataset([][]float64{{1}, {2}}, []float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Targets[1] != 1.5 {
		t.Fatalf("round trip: %+v", back)
	}
}
