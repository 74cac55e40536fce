//go:build amd64

package vec

// The dot-product kernels of dot_amd64.s. Contracts:
//   - dot1x64/dot1x32avx: len(b) >= len(a); returns the (a·b) over len(a)
//     elements with the summation tree documented in dot_amd64.s.
//   - dot4x32avx: len(q0..q3) >= len(row); out[j] = row·qj, each
//     accumulated with exactly the dot1x32avx tree, so grouping queries
//     four at a time changes no bits versus one-at-a-time evaluation.
//   - gemv8x64avx: one block of rows of sqL2Sweep8's eight-query float64
//     distance pass, each dot accumulated with exactly the dot1x64 tree.
//   - gemv4x32avx: n rows of one four-query float32 distance group, query
//     j's distances stride values after query 0's.
//   - dotRows4x64avx/dotRows4x2x64avx: len(dst)/4 groups of four rows of
//     mat against x (and x1), len(x) >= 4 values per row; each product
//     has the bits of vec.Dot (four lanes by offset mod 4, the tail in
//     lane 0, the fold ((s0+s1)+s2)+s3).
//   - sqL2x4avx: out[j] = vec.SqL2(aj, q) bit for bit, len(aj) = len(q)
//     >= 4.
//
// dot1x64 is SSE2 and runs on every amd64 host; every other kernel needs
// AVX. useAVX picks once at startup. Without AVX the float32 dots and
// group sweep run the Go trees of dot_kernels.go (dotTreeGo32 and
// sqL2Gemv4x32Go), the float64 scan runs dot4x64 there, and the
// four-lane family the Go loops of vec.go, as on other architectures. The
// bodies are bit-identical, so the choice is invisible to callers.

// useAVX reports whether the 256-bit kernels are usable on this machine
// (CPU advertises AVX and the OS saves ymm state).
var useAVX = cpuHasAVX()

func cpuHasAVX() bool

// sweepBlock is the most training values one gemv8x64avx or gemv4x32
// call reads (4096 rows at dim 64: 2 MiB of float64, 1 MiB of float32).
// Go cannot preempt an assembly call, so sqL2Sweep8 and sqL2Gemv4x32 run
// each pass in blocks of rows, and a stop-the-world pause waits out one
// block rather than a whole pass over the training rows.
const sweepBlock = 1 << 18

// sqL2Sweep8 is the AVX body of SqL2NormDotRows: it fills dst[qi*stride+r]
// for the n rows of flat with gemv8x64avx, eight queries per pass over
// the rows, and returns how many leading queries it did. A short last
// group of two to seven queries repeats its last query in the empty slots
// and sends their outputs to that query's own distances, which they
// overwrite with the same bits. A last single query is left to the
// caller's one-query loop, whose pass over the rows does a quarter of the
// arithmetic of a padded sweep (one query against 2e4×64 rows took
// 0.52–0.72 ms that way and 0.83–1.45 ms padded, on a 2-vCPU Xeon host).
// Without AVX it does nothing; the caller then runs dot4x64 four queries
// at a time.
func sqL2Sweep8(dst []float64, stride int, flat []float64, n, dim int, norms, qflat []float64, nq int) int {
	if !useAVX || nq < 2 {
		return 0
	}
	body := dim &^ 3
	qp := make([]float64, 8*body+16*(dim-body))
	block := max(1, sweepBlock/max(1, dim))
	var qs [8][]float64
	var qn [8]float64
	var offs [8]int
	lo := 0
	for ; nq-lo >= 2; lo += 8 {
		k := min(8, nq-lo)
		for j := range qs {
			src := min(j, k-1)
			qs[j] = qflat[(lo+src)*dim : (lo+src+1)*dim]
			qn[j] = SqNorm(qs[j])
			offs[j] = src * stride
		}
		packQueries8(qp, &qs, dim)
		for r := 0; r < n; r += block {
			m := min(block, n-r)
			gemv8x64avx(dst[lo*stride+r:], m, flat[r*dim:(r+m)*dim], dim, norms[r:r+m], qp, &qn, &offs)
		}
	}
	return min(lo, nq)
}

// sweepPairs are the queries that share each of gemv8x64avx's four
// accumulators, in accumulator order; its fold interleaves the pairs back
// into query order.
var sweepPairs = [4][2]int{{0, 2}, {1, 3}, {4, 6}, {5, 7}}

// packQueries8 lays eight queries out in the order gemv8x64avx reads
// them: for every two elements i, i+1 of the four-element body, each
// pair's [a_i, a_i+1, b_i, b_i+1]; then for every tail element j, each
// pair's [a_j, 0, b_j, 0]. qp holds 8·(dim&^3) + 16·(dim%4) values.
func packQueries8(qp []float64, qs *[8][]float64, dim int) {
	body := dim &^ 3
	k := 0
	for i := 0; i < body; i += 2 {
		for _, p := range sweepPairs {
			a, b := qs[p[0]], qs[p[1]]
			qp[k], qp[k+1], qp[k+2], qp[k+3] = a[i], a[i+1], b[i], b[i+1]
			k += 4
		}
	}
	for j := body; j < dim; j++ {
		for _, p := range sweepPairs {
			qp[k], qp[k+1], qp[k+2], qp[k+3] = qs[p[0]][j], 0, qs[p[1]][j], 0
			k += 4
		}
	}
}

func dot1x32(a, b []float32) float32 {
	if useAVX {
		return dot1x32avx(a, b)
	}
	return dotTreeGo32(a, b)
}

// sqL2Gemv4x32 runs one four-query distance group — every row's dots,
// norms arithmetic, clamp, and float64 widening — as AVX assembly sweeps,
// eliminating the per-row call and slicing overhead of the portable
// loop. Like sqL2Sweep8 it makes one call per block of at most
// sweepBlock training values, so that the goroutine can be preempted
// between blocks. Bit-identical to sqL2Gemv4x32Go, which runs without
// AVX.
func sqL2Gemv4x32(dst4 []float64, n int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32) {
	if !useAVX {
		sqL2Gemv4x32Go(dst4, n, flat, dim, norms, q0, q1, q2, q3, qn)
		return
	}
	block := max(1, sweepBlock/max(1, dim))
	for r := 0; r < n; r += block {
		m := min(block, n-r)
		gemv4x32avx(dst4[r:], n, m, flat[r*dim:(r+m)*dim], dim, norms[r:r+m], q0, q1, q2, q3, qn)
	}
}

// dotRows4 is the AVX body of DotRows: dotRows4x64avx fills dst four
// rows per group, and dotRows4 reports whether it ran. A row count that
// is not a multiple of four ends with a group that overlaps the one
// before it; a row computed twice gets the same bits both times. Without
// AVX, or below four rows or four values per row, it does nothing.
func dotRows4(dst, mat, x []float64) bool {
	m, dim := len(dst), len(x)
	if !useAVX || m < 4 || dim < 4 {
		return false
	}
	body := m &^ 3
	dotRows4x64avx(dst[:body], mat[:body*dim], x)
	if body < m {
		dotRows4x64avx(dst[m-4:], mat[(m-4)*dim:], x)
	}
	return true
}

// dotRows4x2 is dotRows4 for DotRows2.
func dotRows4x2(dst0, dst1, mat, x0, x1 []float64) bool {
	m, dim := len(dst0), len(x0)
	if !useAVX || m < 4 || dim < 4 {
		return false
	}
	body := m &^ 3
	dotRows4x2x64avx(dst0[:body], dst1[:body], mat[:body*dim], x0, x1)
	if body < m {
		dotRows4x2x64avx(dst0[m-4:], dst1[m-4:], mat[(m-4)*dim:], x0, x1)
	}
	return true
}

// sqL2x4 is the AVX body of SqL2x4 and reports whether it ran: without
// AVX, or below four values per row, it does nothing.
func sqL2x4(out *[4]float64, a0, a1, a2, a3, q []float64) bool {
	if !useAVX || len(q) < 4 {
		return false
	}
	sqL2x4avx(a0, a1, a2, a3, q, out)
	return true
}

//go:noescape
func dot1x64(a, b []float64) float64

//go:noescape
func gemv8x64avx(dst []float64, n int, flat []float64, dim int, norms []float64, qp []float64, qn *[8]float64, offs *[8]int)

//go:noescape
func dot1x32avx(a, b []float32) float32

//go:noescape
func dot4x32avx(row, q0, q1, q2, q3 []float32, out *[4]float32)

//go:noescape
func gemv4x32avx(dst4 []float64, stride, n int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32)

//go:noescape
func dotRows4x64avx(dst, mat, x []float64)

//go:noescape
func dotRows4x2x64avx(dst0, dst1, mat, x0, x1 []float64)

//go:noescape
func sqL2x4avx(a0, a1, a2, a3, q []float64, out *[4]float64)
