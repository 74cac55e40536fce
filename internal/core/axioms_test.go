package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// Shapley axiom tests on the fast algorithms, at sizes far beyond what the
// brute-force oracle can check.

// Symmetry: two identical training points (same features, same label) must
// receive exactly the same value under every exact algorithm.
func TestSymmetryForDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(5151, 51))
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.IntN(40)
		k := 1 + rng.IntN(5)
		tp := randomClassTP(n, 3, k, rng)
		// Duplicate point 0 into point 1 (feature-identical ⇒ equal dist).
		tp.Dist[1] = tp.Dist[0]
		tp.Correct[1] = tp.Correct[0]
		sv := ExactClassSV(tp)
		if math.Abs(sv[0]-sv[1]) > 1e-12 {
			t.Fatalf("duplicates valued differently: %v vs %v", sv[0], sv[1])
		}
		comp := CompositeClassSV(tp)
		if math.Abs(comp.Sellers[0]-comp.Sellers[1]) > 1e-12 {
			t.Fatalf("composite duplicates differ: %v vs %v", comp.Sellers[0], comp.Sellers[1])
		}
	}
}

func TestSymmetryForDuplicateRegressionPoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(5252, 52))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.IntN(30)
		k := 1 + rng.IntN(4)
		tp := randomRegressTP(n, k, rng)
		tp.Dist[1] = tp.Dist[0]
		tp.Y[1] = tp.Y[0]
		sv := ExactRegressSV(tp)
		if math.Abs(sv[0]-sv[1]) > 1e-9 {
			t.Fatalf("regression duplicates differ: %v vs %v", sv[0], sv[1])
		}
	}
}

// A farthest point with the same label as the runner-up carries the same
// value tail (the Theorem 1 recursion only moves on label changes) — and a
// point beyond rank K with a label agreeing with every nearer point is
// effectively null when all labels agree.
func TestUniformLabelsGiveUniformTail(t *testing.T) {
	rng := rand.New(rand.NewPCG(5353, 53))
	n, k := 50, 3
	X := make([][]float64, n)
	labels := make([]int, n) // all class 0
	for i := range X {
		X[i] = []float64{rng.Float64() * 10}
	}
	tp := knn.BuildTestPoint(knn.UnweightedClass, k, nil, vec.L2, X, labels, nil, []float64{5}, 0, 0)
	sv := ExactClassSV(tp)
	order := tp.Order()
	// With identical labels, every difference is zero: all points share
	// s = 1/N… specifically s_i = s_N = 1/N.
	for _, i := range order {
		if math.Abs(sv[i]-1.0/float64(n)) > 1e-12 {
			t.Fatalf("uniform-label SV not uniform: %v", sv[i])
		}
	}
}

// Additivity over test points: the multi-test value is the average of
// single-test values (Eq. 8) — checked via random convex splits.
func TestAdditivityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 10 + rng.IntN(30)
		tps := []*knn.TestPoint{
			randomClassTP(n, 3, 2, rng),
			randomClassTP(n, 3, 2, rng),
		}
		// Make both share the same training geometry size (already do).
		multi := runTPs(t, EngineConfig{Workers: 2}, tps, ExactClassKernel{N: n})
		a := ExactClassSV(tps[0])
		b := ExactClassSV(tps[1])
		for i := range multi {
			if math.Abs(multi[i]-(a[i]+b[i])/2) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Rank preservation (Theorem 1): a training point whose label matches the
// test label is never worth less than the next-farther point when that one
// mismatches.
func TestCorrectBeatsIncorrectNeighbor(t *testing.T) {
	rng := rand.New(rand.NewPCG(5454, 54))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.IntN(50)
		tp := randomClassTP(n, 1+rng.IntN(4), 3, rng)
		sv := ExactClassSV(tp)
		order := tp.Order()
		for r := 0; r+1 < n; r++ {
			a, b := order[r], order[r+1]
			if tp.Correct[a] && !tp.Correct[b] && sv[a] < sv[b]-1e-12 {
				t.Fatalf("correct nearer point valued below incorrect farther one: %v < %v", sv[a], sv[b])
			}
		}
	}
}

// K >= N degenerates gracefully: with every point always a neighbor, each
// correct point is worth 1/max(N,K) … specifically the recursion's
// differences still match brute force (covered elsewhere); here we check the
// closed-form tail for the all-correct case.
func TestKLargerThanN(t *testing.T) {
	rng := rand.New(rand.NewPCG(5555, 55))
	n, k := 6, 9
	X := make([][]float64, n)
	labels := make([]int, n)
	for i := range X {
		X[i] = []float64{rng.Float64()}
	}
	tp := knn.BuildTestPoint(knn.UnweightedClass, k, nil, vec.L2, X, labels, nil, []float64{0.5}, 0, 0)
	sv := ExactClassSV(tp)
	for i, v := range sv {
		if math.Abs(v-1.0/float64(k)) > 1e-12 {
			t.Fatalf("K>N all-correct: sv[%d] = %v want %v", i, v, 1.0/float64(k))
		}
	}
}
