package core

import (
	"fmt"

	"knnshapley/internal/knn"
)

// This file implements the Appendix F generalization: any utility whose
// adjacent-pair difference has the "piecewise" form
//
//	ν(S ∪ {α_i}) − ν(S ∪ {α_{i+1}}) = Σ_t C_t(i) · 1[S ∈ S_t(i)]
//
// admits an O(N·T) Shapley computation, because by Lemma 1
//
//	s_i − s_{i+1} = (1/(N−1)) Σ_t C_t · Σ_k |{S ∈ S_t, |S|=k}| / C(N−2,k)
//
// reduces valuation to a counting problem (Eq. 31). The group families the
// paper's utilities need are "hypergeometric threshold" groups — membership
// depends on how many of the first f ranked points the coalition contains,
// optionally with one pinned member — and their count sums have the closed
// forms below. PiecewiseClassSV and PiecewiseRegressSV re-derive Theorems 1
// and 6 through this engine; tests assert they coincide with the direct
// recursions.

// PiecewiseTerm is one (C_t, S_t) group of the piecewise difference, with
// the group's count sum Σ_k |{S ∈ S_t, |S|=k}|/C(N−2,k) already folded.
type PiecewiseTerm struct {
	C         float64
	WeightSum float64
}

// PiecewiseDifference evaluates s_i − s_{i+1} of Eq. (31) for a pair whose
// difference decomposes into the given terms.
func PiecewiseDifference(n int, terms []PiecewiseTerm) float64 {
	if n < 2 {
		panic(fmt.Sprintf("core: PiecewiseDifference needs n >= 2, got %d", n))
	}
	var s float64
	for _, t := range terms {
		s += t.C * t.WeightSum
	}
	return s / float64(n-1)
}

// WeightThreshold is the count sum of the group
// S_t = {S ⊆ I∖{α_i,α_{i+1}} : |S ∩ front| ≤ K−1} where front holds the f
// points ranked before α_i. Via the binomial identity of Theorem 1's proof
// it equals min(K, f+1)·(N−1)/(f+1).
func WeightThreshold(n, k, f int) float64 {
	if f < 0 {
		panic("core: negative front size")
	}
	return float64(min(k, f+1)) * float64(n-1) / float64(f+1)
}

// WeightThresholdWithPrefixMember is the count sum of the regression group
// S_t = {S : |S ∩ front(i)| ≤ K−1, α_l ∈ S} for a pinned member ranked
// l < i (Eq. 69): (N−1)·min(K,i)·min(K−1,i−1)/(2(i−1)i)·(2/1)… folded as in
// the paper, i.e. U21 of Theorem 6's proof.
func WeightThresholdWithPrefixMember(n, k, i int) float64 {
	if i < 2 {
		return 0
	}
	return float64(n-1) / (float64(i-1) * float64(i)) *
		float64(min(k, i)) * float64(min(k-1, i-1)) / 2
}

// WeightThresholdWithSuffixMember is the count sum of the regression group
// with a pinned member ranked l ≥ i+2 (Eq. 70), i.e. U22 of Theorem 6's
// proof: (N−1)·min(K,l−1)·min(K−1,l−2)/(2(l−1)(l−2)).
func WeightThresholdWithSuffixMember(n, k, l int) float64 {
	if l < 3 {
		return 0
	}
	return float64(n-1) / (float64(l-1) * float64(l-2)) *
		float64(min(k, l-1)) * float64(min(k-1, l-2)) / 2
}

// PiecewiseClassSV recomputes the unweighted KNN classification Shapley
// values through the Appendix F engine: the difference has T = 1 with
// C = (1[y_i = y] − 1[y_{i+1} = y])/K and the threshold group of front size
// i−1 (Eq. 99/100). It must agree with ExactClassSV exactly.
func PiecewiseClassSV(tp *knn.TestPoint) []float64 {
	requireKind(tp, knn.UnweightedClass)
	n := tp.N()
	sv := make([]float64, n)
	if n == 0 {
		return sv
	}
	order := tp.Order()
	k := float64(tp.K)
	last := order[n-1]
	sv[last] = BaseValue(Pack(last, tp.Correct[last]), n, n, tp.K)
	for i := n - 1; i >= 1; i-- {
		cur, next := order[i-1], order[i]
		terms := []PiecewiseTerm{{
			C:         (ind(tp.Correct[cur]) - ind(tp.Correct[next])) / k,
			WeightSum: WeightThreshold(n, tp.K, i-1),
		}}
		sv[cur] = sv[next] + PiecewiseDifference(n, terms)
	}
	return sv
}

// PiecewiseRegressSV recomputes the unweighted KNN regression Shapley values
// through the Appendix F engine: T = N−1 groups — one threshold group with
// C = (y_{i+1}−y_i)/K·((y_i+y_{i+1})/K − 2·y_test) and one pinned-member
// group per other training point with C = 2(y_{i+1}−y_i)·y_l/K² (Eq. 101).
// It must agree with ExactRegressSV up to floating-point error.
func PiecewiseRegressSV(tp *knn.TestPoint) []float64 {
	requireKind(tp, knn.UnweightedRegress)
	n := tp.N()
	sv := make([]float64, n)
	if n == 0 {
		return sv
	}
	// Reuse the verified base case, then rebuild every difference through
	// the generic engine.
	exact := ExactRegressSV(tp)
	order := tp.Order()
	k := float64(tp.K)
	y := make([]float64, n+1)
	for r, id := range order {
		y[r+1] = tp.Y[id]
	}
	sv[order[n-1]] = exact[order[n-1]]
	for i := n - 1; i >= 1; i-- {
		terms := make([]PiecewiseTerm, 0, n-1)
		diffY := y[i+1] - y[i]
		terms = append(terms, PiecewiseTerm{
			C:         diffY / k * ((y[i]+y[i+1])/k - 2*tp.YTest),
			WeightSum: WeightThreshold(n, tp.K, i-1),
		})
		for l := 1; l <= n; l++ {
			if l == i || l == i+1 {
				continue
			}
			c := 2 * diffY * y[l] / (k * k)
			var w float64
			if l < i {
				w = WeightThresholdWithPrefixMember(n, tp.K, i)
			} else {
				w = WeightThresholdWithSuffixMember(n, tp.K, l)
			}
			terms = append(terms, PiecewiseTerm{C: c, WeightSum: w})
		}
		sv[order[i-1]] = sv[order[i]] + PiecewiseDifference(n, terms)
	}
	return sv
}
