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

// evaluate runs p over a fresh session built with opts.
func evaluate(train, test *Dataset, p Method, opts ...Option) (*Report, error) {
	v, err := New(train, opts...)
	if err != nil {
		return nil, err
	}
	return v.Evaluate(context.Background(), Request{Params: p, Test: test})
}

func TestExactClassificationEndToEnd(t *testing.T) {
	train, test := smallSplit(t)
	rep, err := evaluate(train, test, ExactParams{}, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	sv := rep.Values
	if len(sv) != train.N() {
		t.Fatalf("%d values for %d points", len(sv), train.N())
	}
	all := make([]int, train.N())
	for i := range all {
		all[i] = i
	}
	full, err := evaluate(train, test, UtilityParams{Subset: all}, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := evaluate(train, test, UtilityParams{}, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range sv {
		total += v
	}
	if diff := full.Values[0] - empty.Values[0]; math.Abs(total-diff) > 1e-9 {
		t.Fatalf("group rationality: Σsv=%v, ν(I)−ν(∅)=%v", total, diff)
	}
}

// The streamed engine path must return the same values for every batch
// size and worker count (the batches only change memory, never math).
func TestExactBatchSizeInvariance(t *testing.T) {
	train, test := smallSplit(t)
	want, err := evaluate(train, test, ExactParams{}, WithK(3), WithWorkers(1), WithBatchSize(test.N()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ workers, batch int }{{0, 1}, {2, 3}, {8, 64}} {
		got, err := evaluate(train, test, ExactParams{}, WithK(3), WithWorkers(c.workers), WithBatchSize(c.batch))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("workers %d, batch %d", c.workers, c.batch), want.Values, got.Values)
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
	rep, err := evaluate(train, test, ExactParams{}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 100 {
		t.Fatalf("%d values", len(rep.Values))
	}
}

func TestExactWeightedEndToEnd(t *testing.T) {
	train := SynthMNIST(25, 3)
	test := SynthMNIST(3, 4)
	weight := WithWeight(InverseDistance(0.5))
	exact, err := evaluate(train, test, ExactParams{}, WithK(2), weight)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := evaluate(train, test, MCParams{Bound: Fixed, T: 4000, Seed: 5}, WithK(2), weight)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range exact.Values {
		if math.Abs(v-mc.Values[i]) > 0.1 {
			t.Fatalf("exact %v vs MC %v at %d", v, mc.Values[i], i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	train, test := smallSplit(t)
	if _, err := evaluate(train, test, ExactParams{}, WithK(0)); err == nil {
		t.Error("K=0 accepted")
	}
	reg := SynthRegression(10, 4, 0.1, 1)
	if _, err := evaluate(train, reg, ExactParams{}, WithK(1)); err == nil {
		t.Error("mixed train/test kinds accepted")
	}
	if _, err := evaluate(reg, reg, TruncatedParams{Eps: 0.1}, WithK(1)); err == nil {
		t.Error("regression accepted by Truncated")
	}
	lsh := LSHParams{Eps: 0.1, Delta: 0.1, Seed: 1}
	if _, err := evaluate(train, test, lsh, WithK(1), WithWeight(InverseDistance(1))); err == nil {
		t.Error("weighted accepted by LSH")
	}
	if _, err := evaluate(train, test, lsh, WithK(1), WithMetric(Cosine)); err == nil {
		t.Error("cosine accepted by LSH")
	}
}

func TestTruncatedWithinEps(t *testing.T) {
	train, test := smallSplit(t)
	exact, err := evaluate(train, test, ExactParams{}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.1
	approx, err := evaluate(train, test, TruncatedParams{Eps: eps}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range exact.Values {
		if math.Abs(v-approx.Values[i]) > eps {
			t.Fatalf("error %v > eps at %d", v-approx.Values[i], i)
		}
	}
}

func TestLSHValuerEndToEnd(t *testing.T) {
	train := SynthDeep(1000, 7)
	test := SynthDeep(10, 8)
	rep, err := evaluate(train, test, LSHParams{Eps: 0.1, Delta: 0.1, Seed: 9}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.KStar != 10 {
		t.Fatalf("KStar = %d", rep.KStar)
	}
	exact, err := evaluate(train, test, ExactParams{}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Values {
		if math.Abs(v-exact.Values[i]) > 0.1 {
			t.Fatalf("LSH error %v at %d", v-exact.Values[i], i)
		}
	}
}

func TestKDValuerEndToEnd(t *testing.T) {
	train := SynthDeep(800, 11)
	test := SynthDeep(10, 12)
	rep, err := evaluate(train, test, KDParams{Eps: 0.1}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.KStar != 10 {
		t.Fatalf("KStar = %d", rep.KStar)
	}
	// The kd-tree retrieval is exact, so the result equals the sort-based
	// truncation bit-for-bit.
	want, err := evaluate(train, test, TruncatedParams{Eps: 0.1}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Values {
		if v != want.Values[i] {
			t.Fatalf("kd vs truncated at %d: %v != %v", i, v, want.Values[i])
		}
	}
	if _, err := evaluate(train, test, KDParams{Eps: 0.1}, WithK(1), WithMetric(Cosine)); err == nil {
		t.Error("cosine accepted by kd-tree backend")
	}
	if _, err := evaluate(train, test, KDParams{Eps: 0.1}, WithK(1), WithWeight(InverseDistance(1))); err == nil {
		t.Error("weighted accepted by kd-tree backend")
	}
}

func TestMonteCarloBudgets(t *testing.T) {
	train, test := smallSplit(t)
	ben, err := evaluate(train, test, MCParams{Eps: 0.1, Delta: 0.1, Bound: Bennett, Seed: 1}, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	hoef, err := evaluate(train, test, MCParams{Eps: 0.1, Delta: 0.1, Bound: Hoeffding, Seed: 1}, WithK(5))
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
	rep, err := evaluate(train, test, BaselineParams{Eps: 0.2, Delta: 0.2, T: 50, Seed: 1}, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Permutations == 0 || len(rep.Values) != 40 {
		t.Fatalf("report %+v", rep)
	}
}

func TestSellerValuesExactVsMC(t *testing.T) {
	train := SynthMNIST(30, 7)
	test := SynthMNIST(4, 8)
	owners := AssignSellers(train.N(), 5)
	exact, err := evaluate(train, test, SellerParams{Owners: owners, M: 5}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := evaluate(train, test, SellerMCParams{Owners: owners, M: 5,
		MCParams: MCParams{Bound: Fixed, T: 3000, Seed: 3}}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range exact.Values {
		if math.Abs(v-mc.Values[j]) > 0.05 {
			t.Fatalf("seller %d: exact %v vs MC %v", j, v, mc.Values[j])
		}
	}
}

func TestCompositeValuesPointLevel(t *testing.T) {
	train, test := smallSplit(t)
	rep, err := evaluate(train, test, CompositeParams{}, WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, train.N())
	for i := range all {
		all[i] = i
	}
	utility, err := evaluate(train, test, UtilityParams{Subset: all}, WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	full := utility.Values[0]
	total := rep.Analyst
	for _, v := range rep.Values {
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
	rep, err := evaluate(train, test, CompositeParams{Owners: owners, M: 4}, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 4 {
		t.Fatalf("%d sellers", len(rep.Values))
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
