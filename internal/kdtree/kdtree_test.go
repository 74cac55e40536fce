package kdtree

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Build([][]float64{{1}, {1, 2}}, 0); err == nil {
		t.Error("ragged data accepted")
	}
}

// The tree must return exactly the brute-force K nearest neighbors,
// including the (distance, index) tie-break, across dimensions and leaf
// sizes.
func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 41))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(300)
		dim := 1 + rng.IntN(6)
		leaf := 1 + rng.IntN(20)
		X := make([][]float64, n)
		for i := range X {
			row := make([]float64, dim)
			for d := range row {
				// Coarse grid to exercise distance ties.
				row[d] = float64(rng.IntN(6))
			}
			X[i] = row
		}
		tree, err := Build(X, leaf)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = float64(rng.IntN(6))
		}
		k := 1 + rng.IntN(8)
		ids, dists := tree.Query(q, k)
		want := knn.Neighbors(X, q, k, vec.L2)
		if len(ids) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("trial %d (n=%d dim=%d leaf=%d k=%d): ids=%v want %v",
					trial, n, dim, leaf, k, ids, want)
			}
			if i > 0 && dists[i] < dists[i-1] {
				t.Fatalf("distances out of order: %v", dists)
			}
		}
	}
}

// TestQueryMatchesBruteForce at dims 4-70, where leaves are scanned four
// points per vec.SqL2x4 call: leaf sizes 1-20 leave every remainder mod 4
// to the one-point loop. The ids must match brute force, tie-break
// included, and every distance must have the bits of vec.L2Dist.
func TestQueryMatchesBruteForceHighDim(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	for dim := 4; dim <= 70; dim++ {
		n := 1 + rng.IntN(300)
		leaf := 1 + dim%20
		X := make([][]float64, n)
		for i := range X {
			row := make([]float64, dim)
			for d := range row {
				// Coarse grid to exercise distance ties; half the rows get
				// a fraction so that the sums round.
				row[d] = float64(rng.IntN(6))
				if i%2 == 1 {
					row[d] += rng.Float64()
				}
			}
			X[i] = row
		}
		tree, err := Build(X, leaf)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			q := make([]float64, dim)
			for d := range q {
				q[d] = float64(rng.IntN(6)) + rng.Float64()*float64(trial)
			}
			k := 1 + rng.IntN(8)
			ids, dists := tree.Query(q, k)
			want := knn.Neighbors(X, q, k, vec.L2)
			if !slices.Equal(ids, want) {
				t.Fatalf("dim=%d n=%d leaf=%d k=%d: ids=%v want %v", dim, n, leaf, k, ids, want)
			}
			for i, id := range ids {
				if want := vec.L2Dist(X[id], q); math.Float64bits(dists[i]) != math.Float64bits(want) {
					t.Fatalf("dim=%d n=%d leaf=%d: distance to %d = %v, L2Dist %v", dim, n, leaf, id, dists[i], want)
				}
			}
		}
	}
}

func TestQueryEdgeCases(t *testing.T) {
	tree, err := Build([][]float64{{0}, {1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := tree.Query([]float64{0}, 0); ids != nil {
		t.Fatal("k=0 should return nothing")
	}
	ids, _ := tree.Query([]float64{0.4}, 10)
	if len(ids) != 2 {
		t.Fatalf("k>n returned %d", len(ids))
	}
	if tree.N() != 2 {
		t.Fatalf("N = %d", tree.N())
	}
}

// Realistic embedding data, larger scale.
func TestQueryOnMixtureData(t *testing.T) {
	d := dataset.DeepLike(3000, 5)
	tree, err := Build(d.X, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.DeepLike(20, 6)
	for _, x := range q.X {
		ids, _ := tree.Query(x, 10)
		want := knn.Neighbors(d.X, x, 10, vec.L2)
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("mismatch: %v vs %v", ids, want)
			}
		}
	}
}

func BenchmarkQueryDim16(b *testing.B) {
	d := dataset.DeepLike(50000, 1)
	tree, err := Build(d.X, 16)
	if err != nil {
		b.Fatal(err)
	}
	q := dataset.DeepLike(64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Query(q.X[i%64], 10)
	}
}
