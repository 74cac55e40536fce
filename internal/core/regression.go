package core

import (
	"knnshapley/internal/knn"
)

// ExactRegressSV computes the exact Shapley value of every training point
// for the unweighted KNN regression utility (Eq. 25) of a single test point,
// via the Theorem 6 recursion evaluated in O(N) with prefix/suffix sums
// (after the O(N log N) distance sort).
//
// Base-case note: Eq. (62) is derived with the convention ν(∅) = 0, while
// Eq. (25) evaluated on the empty set gives ν(∅) = −y_test²; we add
// y_test²/N so the values satisfy group rationality against the literal
// Eq. (25) utility (see the package comment).
func ExactRegressSV(tp *knn.TestPoint) []float64 {
	sv := make([]float64, tp.N())
	exactRegressSVInto(tp, NewScratch(), sv)
	return sv
}

// exactRegressSVInto is the scratch-aware Theorem 6 recursion writing into a
// zeroed dst of length tp.N().
func exactRegressSVInto(tp *knn.TestPoint, s *Scratch, dst []float64) {
	requireKind(tp, knn.UnweightedRegress)
	n := tp.N()
	if n == 0 {
		return
	}
	order := s.OrderOf(tp)
	k := float64(tp.K)
	t := tp.YTest
	// y[r] is the target of the r-th nearest neighbor, 1-based.
	y := s.Floats(0, n+1)
	y[0] = 0
	for r, id := range order {
		y[r+1] = tp.Y[id]
	}

	if n == 1 {
		// s_1 = ν({1}) − ν(∅) directly.
		d := y[1]/k - t
		dst[order[0]] = -d*d + t*t
		return
	}

	// Base case s_{α_N}.
	var sumOthers float64
	for r := 1; r < n; r++ {
		sumOthers += y[r]
	}
	nf := float64(n)
	yn := y[n]
	var base float64
	if n > tp.K {
		// Eq. (62) plus the ν(∅) correction.
		dN := yn/k - t
		base = -(k-1)/(nf*k)*yn*(yn/k-2*t+sumOthers/(nf-1)) - dN*dN/nf + t*t/nf
	} else {
		// N <= K: every coalition keeps all its points, so averaging the
		// marginal −(y_N/K)² − (2y_N/K)·((1/K)Σ_{l∈S}y_l − t) over coalition
		// sizes gives Σ_{l∈S}y_l → Σ_{l≠N}y_l/2 and
		// s_{α_N} = −(y_N/K)² − (2y_N/K)·(Σ_{l≠N}y_l/(2K) − t).
		base = -(yn/k)*(yn/k) - 2*yn/k*(sumOthers/(2*k)-t)
	}
	dst[order[n-1]] = base

	// Prefix sums P[r] = Σ_{l<=r} y_l and suffix sums W[r] = Σ_{l>=r} w_l·y_l
	// with w_l = min(K,l−1)·min(K−1,l−2)/((l−1)(l−2)) (zero for l < 3).
	prefix := s.Floats(1, n+2)
	prefix[0] = 0
	for r := 1; r <= n; r++ {
		prefix[r] = prefix[r-1] + y[r]
	}
	prefix[n+1] = 0
	suffix := s.Floats(2, n+3)
	suffix[n+1], suffix[n+2] = 0, 0
	for r := n; r >= 3; r-- {
		lf := float64(r)
		w := float64(min(tp.K, r-1)) * float64(min(tp.K-1, r-2)) / ((lf - 1) * (lf - 2))
		suffix[r] = suffix[r+1] + w*y[r]
	}

	// Recursion Eq. (63)/(64): s_{α_i} = s_{α_{i+1}} + (1/K)(y_{i+1}−y_i)·
	// (min(K,i)/i)·((1/K)·Σ_l A_i^(l)·y_l − 2·y_test), with the A-weighted
	// sum assembled from the prefix/suffix accumulators.
	for i := n - 1; i >= 1; i-- {
		fi := float64(i)
		minKi := float64(min(tp.K, i))
		var aSum float64
		if i >= 2 {
			aSum += float64(min(tp.K-1, i-1)) / (fi - 1) * prefix[i-1]
		}
		aSum += y[i] + y[i+1]
		if i+2 <= n {
			aSum += fi / minKi * suffix[i+2]
		}
		delta := (y[i+1] - y[i]) / k * (minKi / fi) * (aSum/k - 2*t)
		dst[order[i-1]] = dst[order[i]] + delta
	}
}
