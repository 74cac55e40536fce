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
// into a zeroed dst of length tp.N().
func truncatedClassSVInto(tp *knn.TestPoint, eps float64, s *Scratch, dst []float64) {
	requireKind(tp, knn.UnweightedClass)
	n := tp.N()
	kStar := KStar(tp.K, eps)
	var ranking []int
	if kStar < n {
		// Only the K* nearest neighbors get nonzero values, so partial
		// selection replaces the full argsort: the K*-prefix of the α
		// ordering is all the recursion consults.
		ranking = s.TopKOf(tp, kStar)
	} else {
		ranking = s.OrderOf(tp)
	}
	correct := s.Bools(len(ranking))
	for rank, id := range ranking {
		correct[rank] = tp.Correct[id]
	}
	truncatedFromRankingInto(ranking, correct, n, tp.K, eps, dst)
}

// TruncatedClassSVMulti averages TruncatedClassSV over test points through
// the shared Engine.
func TruncatedClassSVMulti(tps []*knn.TestPoint, eps float64, opts Options) []float64 {
	if len(tps) == 0 {
		return nil
	}
	return mustRun(tps, opts, TruncatedClassKernel{N: tps[0].N(), Eps: eps})
}

// TruncatedFromRanking runs the Theorem 2 recursion given an externally
// retrieved neighbor ranking (training indices by ascending distance, e.g.
// from an LSH or other ANN index) and per-rank correctness indicators. n is
// the full training-set size; unranked points keep value zero. This is the
// building block behind both the LSH valuer and the Figure 9 sweeps.
func TruncatedFromRanking(ranking []int, correct []bool, n, k int, eps float64) []float64 {
	return truncatedFromRanking(ranking, correct, n, k, eps)
}

// TruncatedFromRankingInto is TruncatedFromRanking writing into a zeroed sv
// of length n, for callers that reuse one buffer per test point (the cluster
// coordinator's merge loop). Only the first K* ranking entries are consulted
// when the ranking extends past K*, so a merged ranking longer than the
// single-node K* prefix — the shape a k-way shard merge produces — runs the
// identical recursion over the identical prefix.
func TruncatedFromRankingInto(ranking []int, correct []bool, n, k int, eps float64, sv []float64) {
	truncatedFromRankingInto(ranking, correct, n, k, eps, sv)
}

// truncatedFromRanking runs the Theorem 2 recursion given the neighbor
// ranking (training indices by ascending distance; only the first K* entries
// are consulted) and the per-rank correctness indicators. n is the full
// training-set size; ranking may be shorter than n (e.g. LSH retrieval), in
// which case every unranked point keeps value zero.
func truncatedFromRanking(ranking []int, correct []bool, n, k int, eps float64) []float64 {
	sv := make([]float64, n)
	truncatedFromRankingInto(ranking, correct, n, k, eps, sv)
	return sv
}

// truncatedFromRankingInto is truncatedFromRanking writing into a zeroed sv
// of length n.
func truncatedFromRankingInto(ranking []int, correct []bool, n, k int, eps float64, sv []float64) {
	if len(ranking) == 0 {
		return
	}
	kStar := KStar(k, eps)
	limit := min(len(ranking), n)
	if kStar >= limit {
		// Degenerate truncation: every ranked point is within K*, so run the
		// full Theorem 1 recursion over the ranked prefix with the exact
		// base case when the prefix covers the whole training set.
		last := limit - 1
		if limit == n {
			sv[ranking[last]] = ind(correct[last]) / float64(n)
		} else {
			sv[ranking[last]] = 0
		}
		recurseUp(sv, ranking, correct, k, last)
		return
	}
	// ŝ_{α_i} = 0 for i ≥ K* (1-based: rank index kStar-1 in 0-based terms
	// is the K*-th neighbor and is the zero base of the recursion).
	sv[ranking[kStar-1]] = 0
	recurseUp(sv, ranking, correct, k, kStar-1)
}

// recurseUp applies the Theorem 1 difference recursion from 0-based rank
// `from` down to rank 0, assuming sv at ranking[from] is already set.
func recurseUp(sv []float64, ranking []int, correct []bool, k, from int) {
	for r := from; r >= 1; r-- {
		i := r // 1-based rank of the nearer point is r, since ranks are r and r+1
		cur, next := ranking[r-1], ranking[r]
		minKi := float64(min(k, i))
		sv[cur] = sv[next] + (ind(correct[r-1])-ind(correct[r]))/float64(k)*minKi/float64(i)
	}
}
