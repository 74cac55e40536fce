package core

import (
	"fmt"
	"math"

	"knnshapley/internal/knn"
)

// KStar returns K* = max{K, ⌈1/eps⌉}, the number of nearest neighbors whose
// Shapley values must be computed exactly for an (eps, 0)-approximation
// (Theorem 2): beyond rank K* the true |s| is below min(1/i, 1/K) ≤ eps.
// ⌈1/eps⌉ saturates at math.MaxInt for eps too small to convert. K* may
// exceed the training-set size; callers that allocate K* slots cap it.
func KStar(k int, eps float64) int {
	if eps <= 0 {
		panic(fmt.Sprintf("core: eps = %v, want positive", eps))
	}
	ks := math.MaxInt
	if inv := math.Ceil(1 / eps); inv < float64(math.MaxInt) {
		ks = int(inv)
	}
	return max(ks, k)
}

// TruncatedClassSV computes the (eps, 0)-approximate Shapley values of
// Theorem 2 for a single test point: values of all but the K* nearest
// neighbors are set to zero, and the exact recursion runs over the K*
// nearest. The result preserves the exact value ranking within the K*
// nearest neighbors (ŝ_i − ŝ_{i+1} = s_i − s_{i+1} for i ≤ K*−1).
func TruncatedClassSV(tp *knn.TestPoint, eps float64) []float64 {
	sv := make([]float64, tp.N())
	truncatedClassSVInto(tp, eps, NewScratch(), sv)
	return sv
}

// truncatedClassSVInto is the scratch-aware Theorem 2 truncation writing
// into a zeroed dst of length tp.N(). Only the K* nearest neighbors get
// nonzero values, so when K* < N partial selection replaces the full
// argsort: the K*-prefix of the α ordering is all the recursion consults.
func truncatedClassSVInto(tp *knn.TestPoint, eps float64, s *Scratch, dst []float64) {
	requireKind(tp, knn.UnweightedClass)
	kStar := KStar(tp.K, eps)
	AddValues(s.Packed(tp, kStar, 0), tp.N(), tp.K, kStar, dst)
}

// TruncatedFromRankingInto runs the Theorem 2 recursion over an externally
// retrieved neighbor ranking (training indices by ascending distance, e.g.
// from an LSH or other ANN index) with per-rank correctness indicators, and
// adds the values into sv (length n, the full training-set size; unranked
// points get nothing). Only the first K* ranking entries are consulted, so
// a ranking longer than the single-node K* prefix runs the identical
// recursion over the identical prefix. It packs that prefix and walks it
// with AddValues, the engine's truncated kernel, which is why it adds
// rather than overwrites: a caller can accumulate many queries into one
// running sum.
func TruncatedFromRankingInto(ranking []int, correct []bool, n, k int, eps float64, sv []float64) {
	kStar := KStar(k, eps)
	m := min(len(ranking), n, kStar)
	AddValues(packRanking(ranking[:m], correct[:m]), n, k, kStar, sv)
}
