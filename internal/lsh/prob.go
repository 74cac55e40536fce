// Package lsh implements the locality-sensitive-hashing substrate of
// Section 3.2: the p-stable (Gaussian, p=2) hash family
// h(x) = ⌊(wᵀx + b)/r⌋ of [DIIM04], a multi-table index with candidate
// retrieval, the closed-form collision probability f_h, relative-contrast
// estimation (C_K = D_mean/D_K of Theorem 3), and the parameter selection
// recipe of Section 6.1 (m = α·logN / log(1/f_h(D_mean)), table count from
// the N^{g(C_K)}·log(K/δ) bound).
//
// Each table keeps its buckets as flat CSR arrays (sorted signature keys,
// uint32 offsets, one uint32 id array holding every point once), found at
// query time through a small open-addressed directory over the keys.
// Build hashes rows in pairs with vec.DotRows2 (on amd64 with AVX, four
// projections of both rows per pass, bit-identical to vec.Dot), one table
// per worker goroutine, and radix-sorts each table by (key, id). There is
// one query path, Index.QueryGroup, which takes up to GroupSize (eight)
// queries at a time: it projects them table by table, two queries per
// vec.DotRows2 pass, folds their keys side by side, resolves each query's
// bucket in every table before walking any, and ranks the candidates four
// at a time with vec.SqL2x4; Query is a group of one. The codec
// (serialize.go) persists the arrays as they are, so a reload is a read, a
// CRC and an O(N) check per table.
package lsh

import (
	"math"
)

// CollisionProb returns f_h(c; r): the probability that two points at l2
// distance c share a hash value under h(x) = ⌊(wᵀx+b)/r⌋ with w ~ N(0, I)
// and b ~ U[0, r]. The closed form from [DIIM04] is
//
//	f_h(c) = 1 − 2Φ(−r/c) − (2c/(√(2π)·r))·(1 − exp(−r²/(2c²)))
//
// where Φ is the standard normal CDF. f_h is monotonically decreasing in c,
// with f_h(0+) = 1 and f_h(∞) = 0.
func CollisionProb(c, r float64) float64 {
	if c < 0 || r <= 0 {
		panic("lsh: CollisionProb needs c >= 0, r > 0")
	}
	if c == 0 {
		return 1
	}
	t := r / c
	p := 1 - 2*stdNormalCDF(-t) - 2/(math.Sqrt(2*math.Pi)*t)*(1-math.Exp(-t*t/2))
	// Clamp tiny negative values from cancellation at large c.
	if p < 0 {
		return 0
	}
	return p
}

func stdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// GExponent returns g(C) = log f_h(1/C) / log f_h(1) of Theorem 3, assuming
// distances normalized so that D_mean = 1 (so a random point sits at distance
// 1 and the K-th neighbor at 1/C). The LSH index answers K-NN queries in
// ~N^{g(C)} time; g(C) < 1 exactly when C > 1.
func GExponent(contrast, r float64) float64 {
	if contrast <= 0 {
		panic("lsh: GExponent needs positive contrast")
	}
	pnn := CollisionProb(1/contrast, r)
	prand := CollisionProb(1, r)
	if prand <= 0 || prand >= 1 || pnn <= 0 {
		return math.Inf(1) // degenerate width: no discrimination possible
	}
	if pnn >= 1 {
		return 0
	}
	return math.Log(pnn) / math.Log(prand)
}

// OptimalR minimizes g(C, r) over a log-spaced grid of bucket widths,
// mimicking the grid search of Section 6.1 ("we performed grid search to
// find the optimal value of r"). It returns the best width (in units of
// D_mean) and the attained exponent.
func OptimalR(contrast float64) (r, g float64) {
	bestR, bestG := 1.0, math.Inf(1)
	for x := -3.0; x <= 3.0; x += 0.05 {
		cand := math.Exp2(x)
		if gg := GExponent(contrast, cand); gg < bestG {
			bestR, bestG = cand, gg
		}
	}
	return bestR, bestG
}

// NumHashBits returns m = max(1, round(alpha·ln N / ln(1/f_h(1)))) hash
// functions per table, the [GIM+99] recipe that keeps the expected number of
// random collisions per bucket at N^(1-alpha)-ish. r is in units of D_mean.
func NumHashBits(n int, r, alpha float64) int {
	prand := CollisionProb(1, r)
	if prand <= 0 || prand >= 1 {
		return 1
	}
	m := int(math.Round(alpha * math.Log(float64(n)) / math.Log(1/prand)))
	if m < 1 {
		m = 1
	}
	return m
}

// NumTables returns l = ceil(N^g · log(K/δ)) hash tables, the Theorem 3
// budget that retrieves all K nearest neighbors with probability 1−δ.
func NumTables(n int, g float64, k int, delta float64) int {
	if delta <= 0 || delta >= 1 {
		panic("lsh: delta outside (0,1)")
	}
	if g < 0 {
		g = 0
	}
	if g > 1 {
		g = 1
	}
	l := math.Ceil(math.Pow(float64(n), g) * math.Log(float64(k)/delta))
	if l < 1 {
		return 1
	}
	if l > 1<<20 {
		return 1 << 20
	}
	return int(l)
}
