// Package vec provides the small dense-vector kernels the rest of the
// repository is built on: distance metrics, norms, and rank/argsort helpers.
//
// Everything operates on []float64 (with opt-in float32 storage variants
// for the bandwidth-bound scans) and is allocation-free unless the
// function's contract says otherwise. The two per-test-point hot paths are
// hardware-shaped: the squared-L2 scan runs as a norm-precompute GEMV
// sweep over the flat training matrix (SqL2NormDotBatch: on amd64 with
// AVX an assembly pass per eight float64 or four float32 queries,
// elsewhere a bit-identical Go pass per four — see dot_kernels.go), and
// the α-ordering argsort is an MSD bucket sort on the distance bit
// patterns (ArgsortDistInto, DistSorter.PackedInto) instead of a
// comparison sort.
package vec

import (
	"fmt"
	"math"
	"sync"
)

// Metric identifies a distance function on feature vectors.
type Metric int

const (
	// L2 is the Euclidean distance. It is the metric used throughout the
	// paper (the p-stable LSH of Section 3.2 targets l2).
	L2 Metric = iota
	// SquaredL2 is the squared Euclidean distance. It induces the same
	// neighbor ordering as L2 but skips the square root.
	SquaredL2
	// L1 is the Manhattan distance.
	L1
	// Cosine is the cosine distance 1 - <a,b>/(|a||b|).
	Cosine
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "l2"
	case SquaredL2:
		return "sql2"
	case L1:
		return "l1"
	case Cosine:
		return "cosine"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Distance returns the distance between a and b under the metric.
// It panics if the vectors have different lengths.
func (m Metric) Distance(a, b []float64) float64 {
	switch m {
	case L2:
		return math.Sqrt(SqL2(a, b))
	case SquaredL2:
		return SqL2(a, b)
	case L1:
		return ManhattanDist(a, b)
	case Cosine:
		return CosineDist(a, b)
	default:
		panic("vec: unknown metric " + m.String())
	}
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(a), len(b)))
	}
}

// SqL2 returns the squared Euclidean distance between a and b. It sums
// in four lanes by offset mod 4, the tail in lane 0, and combines the
// lanes as ((l0+l1)+l2)+l3, each square rounded before it is added.
func SqL2(a, b []float64) float64 {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float64(d * d)
	}
	return s0 + s1 + s2 + s3
}

// SqL2x4 fills out[j] = SqL2(aj, q) for four rows at once, bit for bit:
// the k-d leaf scan and the LSH candidate ranking call it in groups of
// four. On amd64 with AVX and at least four values per row, one pass
// keeps the four rows' lanes in four ymm registers (sqL2x4avx).
func SqL2x4(out *[4]float64, a0, a1, a2, a3, q []float64) {
	checkLen(a0, q)
	checkLen(a1, q)
	checkLen(a2, q)
	checkLen(a3, q)
	if sqL2x4(out, a0, a1, a2, a3, q) {
		return
	}
	out[0], out[1], out[2], out[3] = SqL2(a0, q), SqL2(a1, q), SqL2(a2, q), SqL2(a3, q)
}

// L2Dist returns the Euclidean distance between a and b.
func L2Dist(a, b []float64) float64 { return math.Sqrt(SqL2(a, b)) }

// ManhattanDist returns the l1 distance between a and b.
func ManhattanDist(a, b []float64) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// CosineDist returns 1 - cos(a, b). Zero vectors are treated as maximally
// distant (distance 1) so the function is total.
func CosineDist(a, b []float64) float64 {
	checkLen(a, b)
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}

// DotRows fills dst[j] = Dot(row j of mat, x) for the row-major
// len(dst)×len(x) matrix mat: the projection step of the p-stable LSH
// hash, one vector against every projection of a table. Each product uses
// Dot's summation order exactly (four lanes by offset mod 4, the tail in
// lane 0, lanes combined as ((l0+l1)+l2)+l3), so the results are
// bit-identical to len(dst) separate Dot calls. On amd64 with AVX, at
// least four rows of at least four values run four rows per pass with
// one ymm register of lanes per row (dotRows4x64avx).
func DotRows(dst, mat, x []float64) {
	dim := len(x)
	checkFlat(len(mat), len(dst), dim)
	if dotRows4(dst, mat, x) {
		return
	}
	for j := range dst {
		w := mat[j*dim : (j+1)*dim]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(w); i += 4 {
			s0 += float64(w[i] * x[i])
			s1 += float64(w[i+1] * x[i+1])
			s2 += float64(w[i+2] * x[i+2])
			s3 += float64(w[i+3] * x[i+3])
		}
		for ; i < len(w); i++ {
			s0 += float64(w[i] * x[i])
		}
		dst[j] = s0 + s1 + s2 + s3
	}
}

// DotRows2 is DotRows for two vectors at once: dst0 gets x0's products and
// dst1 x1's. Every matrix element is loaded once for both vectors and the
// eight lane accumulators are independent, which roughly halves the cost
// per vector; the summation order per product is DotRows' (and Dot's).
// The LSH build hashes its rows in pairs through it; on amd64 with AVX it
// runs four rows per pass, as DotRows does (dotRows4x2x64avx).
func DotRows2(dst0, dst1, mat, x0, x1 []float64) {
	checkLen(x0, x1)
	checkLen(dst0, dst1)
	dim := len(x0)
	checkFlat(len(mat), len(dst0), dim)
	if dotRows4x2(dst0, dst1, mat, x0, x1) {
		return
	}
	for j := range dst0 {
		w := mat[j*dim : (j+1)*dim]
		a, b := x0[:len(w)], x1[:len(w)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		i := 0
		for ; i+4 <= len(w); i += 4 {
			w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
			a0 += float64(w0 * a[i])
			b0 += float64(w0 * b[i])
			a1 += float64(w1 * a[i+1])
			b1 += float64(w1 * b[i+1])
			a2 += float64(w2 * a[i+2])
			b2 += float64(w2 * b[i+2])
			a3 += float64(w3 * a[i+3])
			b3 += float64(w3 * b[i+3])
		}
		for ; i < len(w); i++ {
			a0 += float64(w[i] * a[i])
			b0 += float64(w[i] * b[i])
		}
		dst0[j] = a0 + a1 + a2 + a3
		dst1[j] = b0 + b1 + b2 + b3
	}
}

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Scale multiplies a in place by c and returns a.
func Scale(a []float64, c float64) []float64 {
	for i := range a {
		a[i] *= c
	}
	return a
}

// AXPY computes dst += c*x in place. It panics on dimension mismatch.
func AXPY(dst []float64, c float64, x []float64) {
	checkLen(dst, x)
	for i := range dst {
		dst[i] += float64(c * x[i])
	}
}

// Clone returns a fresh copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Distances fills out[i] with metric(points[i], q) and returns out.
// If out is nil or too short a new slice is allocated.
func Distances(m Metric, points [][]float64, q []float64, out []float64) []float64 {
	if cap(out) < len(points) {
		out = make([]float64, len(points))
	}
	out = out[:len(points)]
	for i, p := range points {
		out[i] = m.Distance(p, q)
	}
	return out
}

// DistancesFlat fills out[i] with metric(row i of flat, q) where flat is a
// row-major n×dim matrix. If out is nil or too short a new slice is
// allocated. Operating on one contiguous buffer avoids the per-row pointer
// chase of the [][]float64 layout.
func DistancesFlat(m Metric, flat []float64, n, dim int, q []float64, out []float64) []float64 {
	if len(flat) != n*dim {
		panic(fmt.Sprintf("vec: flat buffer has %d values, want %d×%d", len(flat), n, dim))
	}
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := 0; i < n; i++ {
		out[i] = m.Distance(flat[i*dim:(i+1)*dim], q)
	}
	return out
}

// Argsort returns the permutation that sorts dist ascending. Ties are broken
// by index so the result is deterministic. It is ArgsortDistInto with a
// fresh index buffer.
func Argsort(dist []float64) []int {
	return ArgsortDistInto(nil, dist)
}

// ArgsortBy returns indices 0..n-1 ordered ascending by key(i), ties broken
// by index.
func ArgsortBy(n int, key func(int) float64) []int {
	return ArgsortByInto(nil, n, key)
}

// ArgsortByInto is ArgsortBy writing into idx (reallocated only when too
// short), so hot loops can reuse one index buffer across calls. The ordering
// — ascending by key, ties broken by index — is identical to ArgsortBy's.
// The keys are materialized once and handed to the bucket argsort, so the
// closure is invoked exactly n times instead of O(n log n) times from a
// comparison sort.
func ArgsortByInto(idx []int, n int, key func(int) float64) []int {
	buf := keyBufPool.Get().(*keyBuf)
	if cap(buf.keys) < n {
		buf.keys = make([]float64, n)
	}
	keys := buf.keys[:n]
	for i := range keys {
		keys[i] = key(i)
	}
	idx = ArgsortDistInto(idx, keys)
	keyBufPool.Put(buf)
	return idx
}

type keyBuf struct{ keys []float64 }

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// Mean returns the arithmetic mean of a; it returns 0 for an empty slice.
func Mean(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	var s float64
	for _, v := range a {
		s += v
	}
	return s / float64(len(a))
}

// Sum returns the sum of a.
func Sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// MinMax returns the minimum and maximum of a. It panics on an empty slice.
func MinMax(a []float64) (lo, hi float64) {
	if len(a) == 0 {
		panic("vec: MinMax of empty slice")
	}
	lo, hi = a[0], a[0]
	for _, v := range a[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
