package core

import (
	"fmt"

	"knnshapley/internal/kheap"
	"knnshapley/internal/knn"
)

// ExactWeightedSV computes the exact Shapley value of every training point
// for a weighted KNN utility (Eq. 26 classification / Eq. 27 regression) of
// a single test point, via the O(N^K)-style counting algorithm of Theorem 7:
// only coalitions' K nearest neighbors matter, there are at most
// Σ_{k≤K−1} C(N−2,k) distinct K-neighbor prefixes per adjacent pair, and
// larger coalitions are accounted for with a closed-form binomial multiplier
// rather than enumeration.
//
// The cost is Θ(N·C(N−2,K−1)·K); use EstimateWeightedCost to budget before
// calling and the improved Monte-Carlo estimator (Algorithm 2) when it is too
// expensive.
func ExactWeightedSV(tp *knn.TestPoint) []float64 {
	if !tp.Kind.IsWeighted() {
		panic(fmt.Sprintf("core: ExactWeightedSV needs a weighted utility, got %v", tp.Kind))
	}
	return exactByCounting(tp)
}

// EstimateWeightedCost returns the approximate number of utility evaluations
// Theorem 7 performs for a problem of size n with parameter k.
func EstimateWeightedCost(n, k int) float64 {
	if n < 2 {
		return 1
	}
	var total float64
	for kk := 0; kk <= k-1; kk++ {
		total += binomFloat(n-2, kk)
	}
	return total * float64(n)
}

// svWeights abstracts the coalition-size weight family of a Shapley-style
// game so the Theorem 7 counting machinery serves both the data-only game
// (Theorem 7/8) and the composite game with an analyst (Theorems 11/12),
// which reweights a size-k coalition by (k+1)/(N+1).
type svWeights struct {
	// subset(k) is the per-coalition weight of a size-k coalition in the
	// base-case sum (k ≤ K−1, so no overflow concerns).
	subset func(k int) float64
	// pair(k) is w(k)+w(k+1), the per-coalition weight of a size-k coalition
	// in the Lemma 1 pairwise-difference sum.
	pair func(k int) float64
	// pairRatio(k) = pair(k+1)/pair(k), used to fold the Eq. (77) binomial
	// tail without materializing huge binomials.
	pairRatio func(k int) float64
}

// dataOnlyWeights is the classic Shapley family: subset weight
// k!(N−k−1)!/N! = 1/(N·C(N−1,k)), pair weight 1/((N−1)·C(N−2,k)).
func dataOnlyWeights(n int) svWeights {
	return svWeights{
		subset: func(k int) float64 { return 1 / (float64(n) * binomFloat(n-1, k)) },
		pair:   func(k int) float64 { return 1 / (float64(n-1) * binomFloat(n-2, k)) },
		pairRatio: func(k int) float64 {
			// C(N−2,k)/C(N−2,k+1) = (k+1)/(N−2−k).
			return float64(k+1) / float64(n-2-k)
		},
	}
}

// compositeWeights is the same family in the (N+1)-player composite game,
// restricted to coalitions containing the analyst: subset weight
// (k+1)!(N−k−1)!/(N+1)! = 1/((N+1)·C(N,k+1)), pair weight
// (k+1)!(N−k−2)!/N! = 1/(N·C(N−1,k+1)) (Theorem 11).
func compositeWeights(n int) svWeights {
	return svWeights{
		subset: func(k int) float64 { return 1 / (float64(n+1) * binomFloat(n, k+1)) },
		pair:   func(k int) float64 { return 1 / (float64(n) * binomFloat(n-1, k+1)) },
		pairRatio: func(k int) float64 {
			// C(N−1,k+1)/C(N−1,k+2) = (k+2)/(N−2−k).
			return float64(k+2) / float64(n-2-k)
		},
	}
}

// exactByCounting implements the Theorem 7 recursion for any KNN utility
// (it only relies on the locality property, so it also reproduces the
// unweighted results — used as a cross-check in tests).
func exactByCounting(tp *knn.TestPoint) []float64 {
	return countingSV(tp, dataOnlyWeights(tp.N()))
}

// countingSV is the weight-parametric Theorem 7/11 algorithm.
func countingSV(tp *knn.TestPoint, w svWeights) []float64 {
	sv := make([]float64, tp.N())
	countingSVInto(tp, w, NewScratch(), sv)
	return sv
}

// countingSVInto is countingSV writing into a zeroed sv of length tp.N(),
// taking the distance ordering from the worker scratch.
func countingSVInto(tp *knn.TestPoint, w svWeights, s *Scratch, sv []float64) {
	n := tp.N()
	if n == 0 {
		return
	}
	order := s.OrderOf(tp) // order[r] = training index of the (r+1)-th nearest
	k := tp.K
	h := s.heapOf(k)
	if n == 1 {
		sv[order[0]] = w.subset(0) * (tp.SubsetUtilityWith(h, order) - tp.EmptyUtility())
		return
	}

	// Base case Eq. (74)/(93): s_{α_N} = Σ_{k=0}^{K−1} w.subset(k)·
	// Σ_{|S|=k, S ⊆ I∖{α_N}} [ν(S∪{α_N}) − ν(S)], evaluated literally with
	// ν(∅) from the utility itself.
	farthest := order[n-1]
	rest := order[:n-1]
	var base float64
	subset := make([]int, 0, k+1)
	for size := 0; size <= k-1 && size <= n-1; size++ {
		ws := w.subset(size)
		forEachCombination(n-1, size, func(comb []int) {
			subset = subset[:0]
			for _, c := range comb {
				subset = append(subset, rest[c])
			}
			without := tp.SubsetUtilityWith(h, subset)
			subset = append(subset, farthest)
			base += ws * (tp.SubsetUtilityWith(h, subset) - without)
		})
	}
	sv[farthest] = base

	// Pair recursion Eq. (75)–(77): for each adjacent pair (α_i, α_{i+1}) sum
	// the utility difference over (a) all coalitions of size ≤ K−2 (each with
	// its plain 1/C(N−2,k) weight) and (b) all K−1-sized neighbor prefixes,
	// weighted by the number of larger coalitions sharing that prefix.
	others := make([]int, n-2) // training ids of everyone except the pair
	ranks := make([]int, n-2)  // their 1-based ranks
	// tails[r] is the Eq. (77) multiplier of a prefix whose largest rank is
	// r (≥ 2, the pair's); it depends on nothing else, so each is summed
	// once here instead of once per prefix.
	var tails []float64
	if size := k - 1; size >= 0 && size <= n-2 {
		tails = make([]float64, n+1)
		for r := 2; r <= n; r++ {
			tails[r] = tailCoefficient(n, k, r, w)
		}
	}
	for i := n - 1; i >= 1; i-- {
		cur, next := order[i-1], order[i] // ranks i and i+1 (1-based)
		others = others[:0]
		ranks = ranks[:0]
		for r, id := range order {
			if r == i-1 || r == i {
				continue
			}
			others = append(others, id)
			ranks = append(ranks, r+1)
		}
		var delta float64
		// (a) coalition sizes 0..K−2: every subset matters in full.
		for size := 0; size <= k-2 && size <= len(others); size++ {
			wp := w.pair(size)
			forEachCombination(len(others), size, func(comb []int) {
				delta += wp * pairDiff(tp, h, others, comb, cur, next, subset[:0])
			})
		}
		// (b) neighbor prefixes of size K−1 with the Eq. (77) multiplier:
		// a coalition of size k ≥ K−1 whose K−1 non-pair nearest points are
		// exactly S contributes iff its remaining k−K+1 members rank beyond
		// max(rank(S ∪ {α_i, α_{i+1}})); there are C(N−maxRank, k−K+1) such
		// coalitions at size k, each carrying weight w.pair(k).
		if size := k - 1; size >= 0 && size <= len(others) {
			forEachCombination(len(others), size, func(comb []int) {
				maxRank := i + 1 // the pair's larger rank
				for _, c := range comb {
					if ranks[c] > maxRank {
						maxRank = ranks[c]
					}
				}
				if coef := tails[maxRank]; coef != 0 {
					delta += coef * pairDiff(tp, h, others, comb, cur, next, subset[:0])
				}
			})
		}
		sv[cur] = sv[next] + delta
	}
}

// pairDiff returns ν(S∪{cur}) − ν(S∪{next}) where S is others[comb],
// evaluating both utilities in h.
func pairDiff(tp *knn.TestPoint, h *kheap.Heap, others []int, comb []int, cur, next int, scratch []int) float64 {
	s := scratch
	for _, c := range comb {
		s = append(s, others[c])
	}
	s = append(s, cur)
	with := tp.SubsetUtilityWith(h, s)
	s[len(s)-1] = next
	return with - tp.SubsetUtilityWith(h, s)
}

// tailCoefficient is Σ_{j=0}^{N−maxRank} C(N−maxRank, j)·w.pair(K−1+j),
// the Eq. (77) multiplier folded over all coalition sizes k = K−1..N−2.
// Terms are accumulated via ratio updates so no large binomial is ever
// materialized.
func tailCoefficient(n, k, maxRank int, w svWeights) float64 {
	m := n - maxRank
	term := w.pair(k - 1)
	sum := term
	for j := 0; j < m; j++ {
		// term_{j+1} = term_j · (m−j)/(j+1) · pairRatio(K−1+j).
		if k-1+j >= n-2 {
			break
		}
		term *= float64(m-j) / float64(j+1) * w.pairRatio(k-1+j)
		sum += term
	}
	return sum
}

// binomFloat returns C(n, k) as a float64 (exact for the sizes used here).
func binomFloat(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// forEachCombination calls f with every size-k subset of {0..n-1} in
// lexicographic order. The slice passed to f is reused between calls.
func forEachCombination(n, k int, f func(comb []int)) {
	if k < 0 || k > n {
		return
	}
	if k == 0 {
		f(nil)
		return
	}
	comb := make([]int, k)
	for i := range comb {
		comb[i] = i
	}
	for {
		f(comb)
		// Advance.
		i := k - 1
		for i >= 0 && comb[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		comb[i]++
		for j := i + 1; j < k; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
}
