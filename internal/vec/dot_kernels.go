package vec

import "fmt"

// This file holds the norm-precompute distance kernels: instead of the
// difference-and-square row scan ‖a−q‖² = Σ(aᵢ−qᵢ)², the scan is
// restructured as ‖a‖² + ‖q‖² − 2·a·q with the per-row norms ‖a‖² cached
// once per session. The per-row work drops from subtract+multiply+add to a
// pure dot product — one GEMV-shaped sweep over the training matrix per
// query group: eight queries for the float64 scan on amd64 with AVX, four
// for the float32 scan and wherever AVX is missing. The dots are AVX
// assembly on amd64 hosts that have it (dot_amd64.s) and a bit-identical
// pure-Go tree everywhere else, amd64 without AVX included
// (dotTreeGo64/dotTreeGo32 and the four-query bodies below).
//
// Summation-order contract: every dot product — single-query, grouped by
// four or eight, assembly or fallback, float64 or float32 — accumulates
// with the same tree, so a distance depends only on (row, query), never on
// how queries were batched. The engine's bit-identity guarantee across
// Workers/BatchSize settings rests on this.

// dotTreeGo64 is the pure-Go mirror of the float64 summation tree:
// two lanes, lane 0 accumulating even offsets (and the scalar tail),
// lane 1 odd offsets, combined as lane0 + lane1. The conversions round
// each product, as the assembly does: without them the compiler fuses the
// multiply-adds on arm64, loong64, ppc64, riscv64 and s390x.
func dotTreeGo64(a, b []float64) float64 {
	var l0, l1 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		l0 += float64(a[i] * b[i])
		l1 += float64(a[i+1] * b[i+1])
		l0 += float64(a[i+2] * b[i+2])
		l1 += float64(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		l0 += float64(a[i] * b[i])
	}
	return l0 + l1
}

// dotTreeGo32 is the pure-Go mirror of the float32 summation tree: eight
// lanes by offset mod 8 (one ymm register per query in the AVX kernels),
// tail into lane 0, combined as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)),
// each product rounded as in dotTreeGo64.
func dotTreeGo32(a, b []float32) float32 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		l0 += float32(a[i] * b[i])
		l1 += float32(a[i+1] * b[i+1])
		l2 += float32(a[i+2] * b[i+2])
		l3 += float32(a[i+3] * b[i+3])
		l4 += float32(a[i+4] * b[i+4])
		l5 += float32(a[i+5] * b[i+5])
		l6 += float32(a[i+6] * b[i+6])
		l7 += float32(a[i+7] * b[i+7])
	}
	for ; i < len(a); i++ {
		l0 += float32(a[i] * b[i])
	}
	return ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
}

// dot4x64 sets out[j] = row·qj with the dotTreeGo64 tree. It is the
// float64 scan's four-query group wherever the AVX sweep does not run.
func dot4x64(row, q0, q1, q2, q3 []float64, out *[4]float64) {
	out[0] = dotTreeGo64(row, q0)
	out[1] = dotTreeGo64(row, q1)
	out[2] = dotTreeGo64(row, q2)
	out[3] = dotTreeGo64(row, q3)
}

// dot4x32 is dot4x64 for float32, with the dotTreeGo32 tree: the dots of
// sqL2Gemv4x32Go.
func dot4x32(row, q0, q1, q2, q3 []float32, out *[4]float32) {
	out[0] = dotTreeGo32(row, q0)
	out[1] = dotTreeGo32(row, q1)
	out[2] = dotTreeGo32(row, q2)
	out[3] = dotTreeGo32(row, q3)
}

// SqNorm returns ‖a‖² accumulated with the kernel summation tree — the
// per-row precompute of the norm-dot distance identity. Sessions call it
// once per training row; queries once per scan.
func SqNorm(a []float64) float64 { return dot1x64(a, a) }

// SqNorm32 is SqNorm for float32 storage.
func SqNorm32(a []float32) float32 { return dot1x32(a, a) }

// SqNorms fills dst[i] = ‖row i‖² for the row-major n×dim matrix flat.
// If dst is nil or too short a new slice is allocated.
func SqNorms(dst, flat []float64, n, dim int) []float64 {
	checkFlat(len(flat), n, dim)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = SqNorm(flat[i*dim : (i+1)*dim])
	}
	return dst
}

// SqNorms32 is SqNorms for float32 storage.
func SqNorms32(dst []float32, flat []float32, n, dim int) []float32 {
	checkFlat(len(flat), n, dim)
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = SqNorm32(flat[i*dim : (i+1)*dim])
	}
	return dst
}

// ToFloat32 narrows src into dst (reallocated when too short) and returns
// it — the conversion that builds the float32 mirror of a training set.
func ToFloat32(dst []float32, src []float64) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// SqL2NormDot returns ‖a−q‖² via the norm-dot identity given the
// precomputed squared norms of both vectors. Rounding can push the
// identity a hair negative where the true distance is ~0; the result is
// clamped so distances stay non-negative (and sqrt-safe).
func SqL2NormDot(a, q []float64, aNorm, qNorm float64) float64 {
	d := aNorm + qNorm - 2*dot1x64(a, q)
	if d < 0 {
		d = 0
	}
	return d
}

// SqL2NormDotBatch fills dst[qi*n+r] = ‖row r − query qi‖² for the
// row-major n×dim training matrix flat and the row-major nq×dim query
// block qflat, using the precomputed training norms. The training matrix
// streams through memory once per eight queries on amd64 with AVX (once
// per four elsewhere: the GEMV grouping), which is what makes the
// scan faster than per-query passes; per-query sums use the single-query
// tree exactly, so results do not depend on nq or the grouping. dst must
// have nq*n capacity; the re-sliced buffer is returned. The AVX sweep
// allocates its packed query block, 16·dim values at most, once per call.
func SqL2NormDotBatch(dst []float64, flat []float64, n, dim int, norms []float64, qflat []float64, nq int) []float64 {
	if cap(dst) < nq*n {
		dst = make([]float64, nq*n)
	}
	dst = dst[:nq*n]
	SqL2NormDotRows(dst, flat, n, dim, norms, qflat, nq, 0, n)
	return dst
}

// SqL2NormDotRows is SqL2NormDotBatch over the training rows [lo, hi)
// only: it fills dst[qi*n+r] for lo ≤ r < hi and writes nothing else, so
// calls on disjoint row ranges may fill one tile concurrently. dst must
// hold nq*n values.
func SqL2NormDotRows(dst []float64, flat []float64, n, dim int, norms []float64, qflat []float64, nq, lo, hi int) {
	checkFlat(len(flat), n, dim)
	checkFlat(len(qflat), nq, dim)
	if len(norms) != n {
		panic(fmt.Sprintf("vec: %d norms for %d rows", len(norms), n))
	}
	if len(dst) < nq*n || lo < 0 || lo > hi || hi > n {
		panic(fmt.Sprintf("vec: rows [%d,%d) of %d for %d queries into %d distances", lo, hi, n, nq, len(dst)))
	}
	m := hi - lo
	if m == 0 || nq == 0 {
		return
	}
	// From here on row r is training row lo+r, and query qi's distances
	// start at dst[qi*n].
	dst, flat, norms = dst[lo:], flat[lo*dim:hi*dim], norms[lo:hi]
	qi := sqL2Sweep8(dst, n, flat, m, dim, norms, qflat, nq)
	var qn [4]float64
	var dots [4]float64
	for ; qi+4 <= nq; qi += 4 {
		q0 := qflat[qi*dim : (qi+1)*dim]
		q1 := qflat[(qi+1)*dim : (qi+2)*dim]
		q2 := qflat[(qi+2)*dim : (qi+3)*dim]
		q3 := qflat[(qi+3)*dim : (qi+4)*dim]
		qn[0], qn[1], qn[2], qn[3] = SqNorm(q0), SqNorm(q1), SqNorm(q2), SqNorm(q3)
		d0 := dst[qi*n : qi*n+m]
		d1 := dst[(qi+1)*n : (qi+1)*n+m]
		d2 := dst[(qi+2)*n : (qi+2)*n+m]
		d3 := dst[(qi+3)*n : (qi+3)*n+m]
		for r := 0; r < m; r++ {
			row := flat[r*dim : (r+1)*dim]
			dot4x64(row, q0, q1, q2, q3, &dots)
			nr := norms[r]
			v0 := nr + qn[0] - 2*dots[0]
			v1 := nr + qn[1] - 2*dots[1]
			v2 := nr + qn[2] - 2*dots[2]
			v3 := nr + qn[3] - 2*dots[3]
			if v0 < 0 {
				v0 = 0
			}
			if v1 < 0 {
				v1 = 0
			}
			if v2 < 0 {
				v2 = 0
			}
			if v3 < 0 {
				v3 = 0
			}
			d0[r], d1[r], d2[r], d3[r] = v0, v1, v2, v3
		}
	}
	for ; qi < nq; qi++ {
		q := qflat[qi*dim : (qi+1)*dim]
		qNorm := SqNorm(q)
		d := dst[qi*n : qi*n+m]
		for r := range d {
			d[r] = SqL2NormDot(flat[r*dim:(r+1)*dim], q, norms[r], qNorm)
		}
	}
}

// SqL2NormDotBatch32 is SqL2NormDotBatch computing in float32: the
// training matrix, its norms and the query block are float32 (half the
// memory traffic of the float64 scan), and each squared distance is
// widened to float64 on store so downstream ranking code is unchanged.
func SqL2NormDotBatch32(dst []float64, flat []float32, n, dim int, norms []float32, qflat []float32, nq int) []float64 {
	checkFlat(len(flat), n, dim)
	checkFlat(len(qflat), nq, dim)
	if len(norms) != n {
		panic(fmt.Sprintf("vec: %d norms for %d rows", len(norms), n))
	}
	if cap(dst) < nq*n {
		dst = make([]float64, nq*n)
	}
	dst = dst[:nq*n]
	var qn [4]float32
	qi := 0
	for ; qi+4 <= nq; qi += 4 {
		q0 := qflat[qi*dim : (qi+1)*dim]
		q1 := qflat[(qi+1)*dim : (qi+2)*dim]
		q2 := qflat[(qi+2)*dim : (qi+3)*dim]
		q3 := qflat[(qi+3)*dim : (qi+4)*dim]
		qn[0], qn[1], qn[2], qn[3] = SqNorm32(q0), SqNorm32(q1), SqNorm32(q2), SqNorm32(q3)
		sqL2Gemv4x32(dst[qi*n:(qi+4)*n], n, flat, dim, norms, q0, q1, q2, q3, &qn)
	}
	for ; qi < nq; qi++ {
		q := qflat[qi*dim : (qi+1)*dim]
		qNorm := SqNorm32(q)
		d := dst[qi*n : (qi+1)*n]
		for r := 0; r < n; r++ {
			v := norms[r] + qNorm - 2*dot1x32(flat[r*dim:(r+1)*dim], q)
			if v < 0 {
				v = 0
			}
			d[r] = float64(v)
		}
	}
	return dst
}

// sqL2Gemv4x32Go is the portable body of one four-query float32 GEMV
// group: dst4 is the 4n-length window holding the four queries' distance
// rows back to back. On amd64 with AVX, sqL2Gemv4x32 (dot_amd64.go)
// replaces the whole loop with assembly sweeps, one per block of rows —
// same tree, same distance expression, same clamp, so the outputs are
// bit-identical (TestGemv4x32MatchesGo pins this).
func sqL2Gemv4x32Go(dst4 []float64, n int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32) {
	d0, d1, d2, d3 := dst4[0:n], dst4[n:2*n], dst4[2*n:3*n], dst4[3*n:4*n]
	var dots [4]float32
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		dot4x32(row, q0, q1, q2, q3, &dots)
		nr := norms[r]
		v0 := nr + qn[0] - 2*dots[0]
		v1 := nr + qn[1] - 2*dots[1]
		v2 := nr + qn[2] - 2*dots[2]
		v3 := nr + qn[3] - 2*dots[3]
		if v0 < 0 {
			v0 = 0
		}
		if v1 < 0 {
			v1 = 0
		}
		if v2 < 0 {
			v2 = 0
		}
		if v3 < 0 {
			v3 = 0
		}
		d0[r], d1[r], d2[r], d3[r] = float64(v0), float64(v1), float64(v2), float64(v3)
	}
}

// checkFlat panics unless a flat buffer of length got holds an n×dim
// row-major matrix.
func checkFlat(got, n, dim int) {
	if got != n*dim {
		panic(fmt.Sprintf("vec: flat buffer has %d values, want %d×%d", got, n, dim))
	}
}
