package core

import (
	"fmt"

	"knnshapley/internal/knn"
)

// ExactClassSV computes the exact Shapley value of every training point for
// the unweighted KNN classification utility (Eq. 5) of a single test point,
// via the O(N log N) recursion of Theorem 1 / Algorithm 1:
//
//	s_{α_N} = 1[y_{α_N} = y_test] / N
//	s_{α_i} = s_{α_{i+1}} + (1[y_{α_i}=y] − 1[y_{α_{i+1}}=y])/K · min(K,i)/i
func ExactClassSV(tp *knn.TestPoint) []float64 {
	sv := make([]float64, tp.N())
	exactClassSVInto(tp, NewScratch(), sv)
	return sv
}

// exactClassSVInto is the scratch-aware Theorem 1 recursion writing into a
// zeroed dst of length tp.N(): the packed ranking, sorted in one pass,
// walked by AddValues.
func exactClassSVInto(tp *knn.TestPoint, s *Scratch, dst []float64) {
	requireKind(tp, knn.UnweightedClass)
	n := tp.N()
	AddValues(s.Packed(tp, n, 0), n, tp.K, n, dst)
}

// ExactClassFromRankingInto runs the Theorem 1 recursion over an externally
// produced full neighbor ranking (every training index exactly once, by
// ascending (distance, index)) with per-rank correctness indicators, writing
// into a zeroed dst of length len(ranking). It packs the pair and walks it
// with AddValues, the engine's exact kernel, so a ranking equal to the
// single-node α ordering yields bit-identical values.
func ExactClassFromRankingInto(ranking []int, correct []bool, k int, dst []float64) {
	n := len(ranking)
	AddValues(packRanking(ranking, correct), n, k, n, dst)
}

// packRanking packs a ranking and its per-rank correctness indicators.
func packRanking(ranking []int, correct []bool) []uint32 {
	l := make([]uint32, len(ranking))
	for r, id := range ranking {
		l[r] = Pack(id, correct[r])
	}
	return l
}

// ind converts a correctness indicator to the paper's 1[·] term.
func ind(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func requireKind(tp *knn.TestPoint, want knn.Kind) {
	if tp.Kind != want {
		panic(fmt.Sprintf("core: utility kind %v, want %v", tp.Kind, want))
	}
}
