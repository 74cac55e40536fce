package core

import (
	"knnshapley/internal/knn"
)

// CompositeResult carries the valuation of a composite game (Eq. 28): the
// per-seller Shapley values and the analyst's share. Group rationality
// guarantees Analyst + Σ Sellers = ν(I).
type CompositeResult struct {
	Sellers []float64
	Analyst float64
}

// CompositeClassSV computes the exact Shapley values of the composite game
// for unweighted KNN classification (Theorem 9): each seller's recursion is
// the Theorem 1 recursion reweighted by (min{i,K}+1)/(2(i+1)), and the
// analyst receives the remainder ν(I) − Σ s_i (Eq. 87).
func CompositeClassSV(tp *knn.TestPoint) CompositeResult {
	requireKind(tp, knn.UnweightedClass)
	n := tp.N()
	sv := make([]float64, n)
	if n == 0 {
		return CompositeResult{Sellers: sv}
	}
	order := tp.Order()
	k := float64(tp.K)
	// Base case Eq. (85) generalized to N < K exactly as in the data-only
	// game: Σ_{k=0}^{min(K,N)−1} (k+1)/(N(N+1)) marginals of 1[correct]/K.
	minKN := float64(min(tp.K, n))
	nf := float64(n)
	sv[order[n-1]] = ind(tp.Correct[order[n-1]]) * minKN * (minKN + 1) / (2 * k * nf * (nf + 1))
	for i := n - 1; i >= 1; i-- {
		cur, next := order[i-1], order[i]
		minKi := float64(min(tp.K, i))
		fi := float64(i)
		delta := (ind(tp.Correct[cur]) - ind(tp.Correct[next])) / k *
			minKi * (minKi + 1) / (2 * fi * (fi + 1))
		sv[cur] = sv[next] + delta
	}
	return CompositeResult{Sellers: sv, Analyst: tp.FullUtility() - sum(sv)}
}

// CompositeRegressSV computes the exact Shapley values of the composite game
// for unweighted KNN regression (Theorem 10), evaluated in O(N) with
// prefix/suffix sums like ExactRegressSV.
func CompositeRegressSV(tp *knn.TestPoint) CompositeResult {
	requireKind(tp, knn.UnweightedRegress)
	n := tp.N()
	sv := make([]float64, n)
	if n == 0 {
		return CompositeResult{Sellers: sv}
	}
	if n <= tp.K || n < 3 {
		// Small or K-saturated instances: fall back to the weight-parametric
		// counting algorithm, which is exact for every regime (the closed
		// forms below assume N > K like the paper's derivation).
		sv = compositeCountingSV(tp)
		return CompositeResult{Sellers: sv, Analyst: tp.FullUtility() - sum(sv)}
	}
	order := tp.Order()
	k := float64(tp.K)
	t := tp.YTest
	y := make([]float64, n+1)
	for r, id := range order {
		y[r+1] = tp.Y[id]
	}
	nf := float64(n)

	// Base case Eq. (90).
	var sumOthers float64
	for r := 1; r < n; r++ {
		sumOthers += y[r]
	}
	yn := y[n]
	dN := yn/k - t
	base := -yn/(k*(nf+1))*((k+2)*(k-1)/(2*nf)*(yn/k-2*t)+
		2*(k-1)*(k+1)/(3*nf*(nf-1))*sumOthers) -
		dN*dN/(nf*(nf+1))
	sv[order[n-1]] = base

	// Prefix sums and the Eq. (91) suffix weights
	// w_l = 2·min(K+1,l)·min(K,l−1)·min(K−1,l−2)/(3l(l−1)(l−2)).
	prefix := make([]float64, n+2)
	for r := 1; r <= n; r++ {
		prefix[r] = prefix[r-1] + y[r]
	}
	suffix := make([]float64, n+3)
	for r := n; r >= 3; r-- {
		lf := float64(r)
		w := 2 * float64(min(tp.K+1, r)) * float64(min(tp.K, r-1)) * float64(min(tp.K-1, r-2)) /
			(3 * lf * (lf - 1) * (lf - 2))
		suffix[r] = suffix[r+1] + w*y[r]
	}

	for i := n - 1; i >= 1; i-- {
		fi := float64(i)
		minK1i := float64(min(tp.K+1, i+1))
		minKi := float64(min(tp.K, i))
		inner := (y[i]/k + y[i+1]/k - 2*t) * minK1i * minKi / (2 * fi * (fi + 1))
		if i >= 2 {
			minK1im := float64(min(tp.K-1, i-1))
			inner += prefix[i-1] / k * 2 * minK1i * minKi * minK1im / (3 * (fi - 1) * fi * (fi + 1))
		}
		if i+2 <= n {
			inner += suffix[i+2] / k
		}
		sv[order[i-1]] = sv[order[i]] + (y[i+1]-y[i])/k*inner
	}
	return CompositeResult{Sellers: sv, Analyst: tp.FullUtility() - sum(sv)}
}

// CompositeWeightedSV computes the exact Shapley values of the composite
// game for weighted KNN classification or regression (Theorem 11): the
// Theorem 7 counting algorithm with the composite coalition weights
// 1/((N+1)·C(N,k+1)) and 1/(N·C(N−1,k+1)).
func CompositeWeightedSV(tp *knn.TestPoint) CompositeResult {
	if !tp.Kind.IsWeighted() {
		panic("core: CompositeWeightedSV needs a weighted utility")
	}
	sv := compositeCountingSV(tp)
	return CompositeResult{Sellers: sv, Analyst: tp.FullUtility() - sum(sv)}
}

// compositeCountingSV runs the counting algorithm with composite weights and
// restores the empty-coalition convention of Eq. (28): in the composite game
// a seller's S = ∅ marginal is ν({i}) − ν_c({C}) = ν({i}) − 0, while the
// counting machinery subtracts the literal ν(∅); the difference is the
// constant w_c(0)·ν(∅) = ν(∅)/(N(N+1)) per seller (zero for classification,
// −y_test²/(N(N+1)) for regression utilities).
func compositeCountingSV(tp *knn.TestPoint) []float64 {
	n := tp.N()
	sv := countingSV(tp, compositeWeights(n))
	if n > 0 {
		corr := tp.EmptyUtility() / (float64(n) * float64(n+1))
		for i := range sv {
			sv[i] += corr
		}
	}
	return sv
}

// CompositeMultiSellerSV computes the exact Shapley values of the composite
// multi-data-per-curator game (Theorem 12): Theorem 8's enumeration with
// seller-coalition weights 1/((M+1)·C(M,t+1)).
func CompositeMultiSellerSV(tp *knn.TestPoint, owners []int, m int) (CompositeResult, error) {
	sv, err := multiSellerSV(tp, owners, m, compositeGroupWeights, NewScratch())
	if err != nil {
		return CompositeResult{}, err
	}
	// Same empty-coalition convention fix as compositeCountingSV, at the
	// seller level: + ν(∅)/(M(M+1)) per seller.
	corr := tp.EmptyUtility() / (float64(m) * float64(m+1))
	for j := range sv {
		sv[j] += corr
	}
	return CompositeResult{Sellers: sv, Analyst: tp.FullUtility() - sum(sv)}, nil
}

// compositeGroupWeights returns w[t] = 1/((M+1)·C(M,t+1)) =
// (t+1)!(M−t−1)!/(M+1)!, the composite analog of dataOnlyGroupWeights.
func compositeGroupWeights(m int) []float64 {
	w := make([]float64, m)
	w[0] = 1 / (float64(m) * float64(m+1))
	for t := 1; t < m; t++ {
		// w[t]/w[t−1] = (t+1)/(M−t).
		w[t] = w[t-1] * float64(t+1) / float64(m-t)
	}
	return w
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
