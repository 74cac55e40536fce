//go:build amd64

package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The AVX float32 bodies and the Go tree implement the same 8-lane
// summation tree and must agree bit for bit on every length (loop, tail,
// and empty cases) — otherwise results would depend on which machine ran
// the valuation.
func TestDot32AVXMatchesGoTree(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewPCG(96, 8))
	for n := 0; n <= 70; n++ {
		a := make([]float32, n)
		qs := make([][]float32, 4)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for j := range qs {
			qs[j] = make([]float32, n)
			for i := range qs[j] {
				qs[j][i] = float32(rng.NormFloat64())
			}
		}
		var outAVX [4]float32
		dot4x32avx(a, qs[0], qs[1], qs[2], qs[3], &outAVX)
		for j := range qs {
			want := dotTreeGo32(a, qs[j])
			if got := dot1x32avx(a, qs[j]); got != want {
				t.Fatalf("dot1x32avx n=%d q%d: %v, want tree %v", n, j, got, want)
			}
			if outAVX[j] != want {
				t.Fatalf("dot4x32avx n=%d slot %d: %v, want tree %v", n, j, outAVX[j], want)
			}
		}
	}
}

// Raw four-query dot throughput of the AVX body and the Go tree, isolated
// from the batch loop's per-row overhead (slice headers, norm arithmetic,
// stores).
func BenchmarkDot4x32Bodies(b *testing.B) {
	const n, dim = 10000, 64
	rng := rand.New(rand.NewPCG(97, 9))
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	q := make([][]float32, 4)
	for j := range q {
		q[j] = make([]float32, dim)
		for i := range q[j] {
			q[j][i] = float32(rng.NormFloat64())
		}
	}
	var out [4]float32
	b.Run("go", func(b *testing.B) {
		b.SetBytes(int64(n * dim * 4))
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				dot4x32(flat[r*dim:(r+1)*dim], q[0], q[1], q[2], q[3], &out)
			}
		}
	})
	b.Run("avx", func(b *testing.B) {
		if !useAVX {
			b.Skip("no AVX")
		}
		b.SetBytes(int64(n * dim * 4))
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				dot4x32avx(flat[r*dim:(r+1)*dim], q[0], q[1], q[2], q[3], &out)
			}
		}
	})
}

// BenchmarkScanBodies times the float64 and float32 distance scans with
// the AVX bodies (avx) and without them (noavx: useAVX off, the path of an
// amd64 host without AVX) on 16 queries against 2e4 rows of dim 64. Run
// with:
//
//	go test ./internal/vec -run '^$' -bench ScanBodies -benchtime 20x
func BenchmarkScanBodies(b *testing.B) {
	const n, dim, nq = 20000, 64, 16
	defer func(avx bool) { useAVX = avx }(useAVX)
	hasAVX := useAVX
	rng := rand.New(rand.NewPCG(2, 2))
	flat, _ := randomFlat(n, dim, rng)
	qflat, _ := randomFlat(nq, dim, rng)
	norms := SqNorms(nil, flat, n, dim)
	flat32, qflat32 := ToFloat32(nil, flat), ToFloat32(nil, qflat)
	norms32 := SqNorms32(nil, flat32, n, dim)
	dst := make([]float64, nq*n)
	for _, avx := range []bool{true, false} {
		body := map[bool]string{false: "noavx", true: "avx"}[avx]
		b.Run("f64/"+body, func(b *testing.B) {
			if avx && !hasAVX {
				b.Skip("no AVX")
			}
			useAVX = avx
			for b.Loop() {
				SqL2NormDotBatch(dst, flat, n, dim, norms, qflat, nq)
			}
		})
		b.Run("f32/"+body, func(b *testing.B) {
			if avx && !hasAVX {
				b.Skip("no AVX")
			}
			useAVX = avx
			for b.Loop() {
				SqL2NormDotBatch32(dst, flat32, n, dim, norms32, qflat32, nq)
			}
		})
	}
}

// The AVX group sweep must reproduce the portable group body bit for bit
// on every shape — including scalar tails (dim % 8), dims below one
// chunk, single rows, negative-identity clamps, and non-finite inputs
// (Inf rows make v = Inf - Inf = NaN, which the clamp must preserve, not
// zero). It fills the whole tile through sqL2Gemv4x32, one call per
// sweepBlock of training values (130 rows at dim 4099 take three), and
// then one block of rows on its own, which must leave the other rows'
// distances alone.
func TestGemv4x32MatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	if blocks := (130 + sweepBlock/4099 - 1) / (sweepBlock / 4099); blocks < 3 {
		t.Fatalf("130 rows of dim 4099 fill %d sweepBlocks, want at least 3", blocks)
	}
	rng := rand.New(rand.NewPCG(98, 10))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 8}, {13, 9}, {64, 17}, {31, 64}, {200, 23}, {130, 4099}} {
		n, dim := shape[0], shape[1]
		flat := make([]float32, n*dim)
		for i := range flat {
			flat[i] = float32(rng.NormFloat64())
		}
		// A duplicated row forces v == 0 through the clamp path.
		qs := make([][]float32, 4)
		for j := range qs {
			qs[j] = make([]float32, dim)
			for i := range qs[j] {
				qs[j][i] = float32(rng.NormFloat64())
			}
		}
		copy(flat[:dim], qs[0])
		if n > 2 {
			flat[dim] = float32(inf(1)) // row 1 → NaN distances
		}
		norms := SqNorms32(nil, flat, n, dim)
		qn := [4]float32{SqNorm32(qs[0]), SqNorm32(qs[1]), SqNorm32(qs[2]), SqNorm32(qs[3])}
		want := make([]float64, 4*n)
		sqL2Gemv4x32Go(want, n, flat, dim, norms, qs[0], qs[1], qs[2], qs[3], &qn)
		got := make([]float64, 4*n)
		sqL2Gemv4x32(got, n, flat, dim, norms, qs[0], qs[1], qs[2], qs[3], &qn)
		for i := range want {
			if got[i] != want[i] && !(isNaN64(got[i]) && isNaN64(want[i])) {
				t.Fatalf("n=%d dim=%d: dst4[%d] = %v, want %v", n, dim, i, got[i], want[i])
			}
		}
		// Distances are never negative, so -1 marks an unwritten one.
		lo, hi := n/3, n-n/3
		for i := range got {
			got[i] = -1
		}
		gemv4x32avx(got[lo:], n, hi-lo, flat[lo*dim:hi*dim], dim, norms[lo:hi], qs[0], qs[1], qs[2], qs[3], &qn)
		for i := range want {
			if r := i % n; r < lo || r >= hi {
				if got[i] != -1 {
					t.Fatalf("n=%d dim=%d rows [%d,%d): wrote dst4[%d] = %v", n, dim, lo, hi, i, got[i])
				}
			} else if got[i] != want[i] && !(isNaN64(got[i]) && isNaN64(want[i])) {
				t.Fatalf("n=%d dim=%d rows [%d,%d): dst4[%d] = %v, want %v", n, dim, lo, hi, i, got[i], want[i])
			}
		}
	}
}

// The eight-query AVX sweep, the Go path (useAVX off: dot4x64 four
// queries at a time) and a Go mirror of the sweep must give every
// distance the bits of the per-query Go tree: on dims 0-70 (empty,
// loop-only, and 1-3-element tails), 1-17 queries (short groups are
// padded), 0, 1 and 37 rows, and rows and queries of −0, denormals and
// 1e200-scale values, whose norms overflow to +Inf so that some
// distances are Inf − Inf, a NaN the clamp must keep. On 37 rows and
// more each body also fills the tile as two row ranges (SqL2NormDotRows),
// and the first range must leave the other rows' distances alone. One
// more shape, 130 rows at dim 4099, has more rows than one sweepBlock
// holds (63 at that dim), so the AVX pass runs as three gemv8x64avx calls
// and the row ranges [43, 130) and [0, 43) take blocks of their own.
func TestSweep8x64MatchesGoTree(t *testing.T) {
	defer func(avx bool) { useAVX = avx }(useAVX)
	hasAVX := useAVX
	rng := rand.New(rand.NewPCG(99, 11))
	shapes := [][2]int{{130, 4099}}
	if sweepBlock/4099 >= 130 {
		t.Fatalf("a sweepBlock of %d values holds all 130 rows of dim 4099", sweepBlock)
	}
	for dim := 0; dim <= 70; dim++ {
		for _, n := range []int{0, 1, 37} {
			shapes = append(shapes, [2]int{n, dim})
		}
	}
	nans := 0
	for _, shape := range shapes {
		n, dim := shape[0], shape[1]
		qflat := sweepInputs(rng, 17, dim)
		flat := sweepInputs(rng, n, dim)
		norms := make([]float64, n)
		for r := range norms {
			norms[r] = dotTreeGo64(flat[r*dim:(r+1)*dim], flat[r*dim:(r+1)*dim])
		}
		for nq := 1; nq <= 17; nq++ {
			if n == 130 && nq%5 != 1 {
				// One query, a padded group, a full and a padded group, and
				// two full groups are enough for the blocks, and fast.
				continue
			}
			q := qflat[:nq*dim]
			want := make([]float64, nq*n)
			for qi := 0; qi < nq; qi++ {
				qv := q[qi*dim : (qi+1)*dim]
				qn := dotTreeGo64(qv, qv)
				for r := 0; r < n; r++ {
					v := norms[r] + qn - 2*dotTreeGo64(flat[r*dim:(r+1)*dim], qv)
					if v < 0 {
						v = 0
					}
					want[qi*n+r] = v
					if v != v {
						nans++
					}
				}
			}
			check := func(body string, got []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s dim=%d n=%d nq=%d: dst[%d] = %v (%#x), want %v (%#x)",
							body, dim, n, nq, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
			check("go mirror", sweep8x64Go(flat, n, dim, norms, q, nq))
			for _, avx := range []bool{false, true} {
				if avx && !hasAVX {
					continue
				}
				useAVX = avx
				body := map[bool]string{false: "go", true: "avx"}[avx]
				check(body, SqL2NormDotBatch(nil, flat, n, dim, norms, q, nq))
				if n >= 37 {
					split := n / 3
					sentinel := math.Float64frombits(0x7ff8dead)
					got := make([]float64, nq*n)
					for i := range got {
						got[i] = sentinel
					}
					SqL2NormDotRows(got, flat, n, dim, norms, q, nq, split, n)
					for i, v := range got {
						if i%n < split && math.Float64bits(v) != math.Float64bits(sentinel) {
							t.Fatalf("%s rows [%d,%d) dim=%d nq=%d: wrote dst[%d] = %v", body, split, n, dim, nq, i, v)
						}
					}
					SqL2NormDotRows(got, flat, n, dim, norms, q, nq, 0, split)
					check(body+" rows", got)
				}
			}
		}
	}
	if nans == 0 {
		t.Fatal("no input produced a NaN distance")
	}
}

// sweepInputs returns n random rows of dim values, where row i%4 == 0 is
// all −0, i%4 == 1 denormals, i%4 == 2 1e200-scale values, and i%4 == 3
// standard normal values with a −0, a denormal and a 1e200 sprinkled in.
func sweepInputs(rng *rand.Rand, n, dim int) []float64 {
	flat := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		for i := range row {
			switch r % 4 {
			case 0:
				row[i] = math.Copysign(0, -1)
			case 1:
				row[i] = math.SmallestNonzeroFloat64 * float64(rng.IntN(1<<20)-1<<19)
			case 2:
				row[i] = 1e200 * rng.NormFloat64()
			default:
				row[i] = rng.NormFloat64()
			}
		}
		if r%4 == 3 && dim > 0 {
			row[rng.IntN(dim)] = math.Copysign(0, -1)
			row[rng.IntN(dim)] = 3 * math.SmallestNonzeroFloat64
			row[rng.IntN(dim)] = 1e200
		}
	}
	return flat
}

// sweep8x64Go is SqL2NormDotBatch on the AVX sweep with gemv8x64Go in
// place of the assembly: the same eight-query groups, padding and packed
// query block, except that it pads a last single query too, which
// sqL2Sweep8 leaves to the one-query loop.
func sweep8x64Go(flat []float64, n, dim int, norms, qflat []float64, nq int) []float64 {
	dst := make([]float64, nq*n)
	qp := make([]float64, 8*(dim&^3)+16*(dim%4))
	for lo := 0; lo < nq; lo += 8 {
		k := min(8, nq-lo)
		var qs [8][]float64
		var qn [8]float64
		var offs [8]int
		for j := range qs {
			src := min(j, k-1)
			qs[j] = qflat[(lo+src)*dim : (lo+src+1)*dim]
			qn[j] = dotTreeGo64(qs[j], qs[j])
			offs[j] = src * n
		}
		packQueries8(qp, &qs, dim)
		gemv8x64Go(dst[lo*n:], n, flat, dim, norms, qp, &qn, &offs)
	}
	return dst
}

// gemv8x64Go is gemv8x64avx lane by lane: accumulator p holds the lanes
// [a0, a1, b0, b1] of the queries sweepPairs[p], a body step adds the
// products of one element pair, and a tail element adds [r_j·a_j, 0·0,
// r_j·b_j, 0·0].
func gemv8x64Go(dst []float64, n int, flat []float64, dim int, norms, qp []float64, qn *[8]float64, offs *[8]int) {
	body := dim &^ 3
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		var acc [4][4]float64
		k := 0
		for i := 0; i < body; i += 2 {
			for p := range acc {
				acc[p][0] += row[i] * qp[k]
				acc[p][1] += row[i+1] * qp[k+1]
				acc[p][2] += row[i] * qp[k+2]
				acc[p][3] += row[i+1] * qp[k+3]
				k += 4
			}
		}
		var zero float64
		for j := body; j < dim; j++ {
			for p := range acc {
				acc[p][0] += row[j] * qp[k]
				acc[p][1] += zero * qp[k+1]
				acc[p][2] += row[j] * qp[k+2]
				acc[p][3] += zero * qp[k+3]
				k += 4
			}
		}
		for p, pair := range sweepPairs {
			for h, j := range pair {
				v := norms[r] + qn[j] - 2*(acc[p][2*h]+acc[p][2*h+1])
				if v < 0 {
					v = 0
				}
				dst[offs[j]+r] = v
			}
		}
	}
}

// The four-lane AVX bodies of DotRows, DotRows2 and SqL2x4, their Go
// loops (useAVX off) and per-row Dot and SqL2 must agree bit for bit, a
// NaN matching any NaN: on dims 0-70 (below one chunk, loop only, and
// 1-3-element tails), 1-23 projection rows (every row count mod 4, so
// the overlapping last group, and below four rows), and every run of four
// consecutive rows for SqL2x4. The rows mix −0, denormals, 1e200-scale
// values, ±Inf and NaN (fourLaneInputs). x0 is standard normal with a −0
// and a denormal, so that its sums show any change of summation order;
// x1 is 1e200-scale, so that its products with the 1e200 rows overflow
// and sums of +Inf and −Inf give NaN. The test fails if no result is NaN
// or too few are finite.
func TestFourLaneMatchesDot(t *testing.T) {
	defer func(avx bool) { useAVX = avx }(useAVX)
	bodies := []bool{false}
	if useAVX {
		bodies = append(bodies, true)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	const maxRows = 23
	rng := rand.New(rand.NewPCG(100, 12))
	nans, finite := 0, 0
	for dim := 0; dim <= 70; dim++ {
		mat := fourLaneInputs(rng, maxRows, dim)
		x0 := make([]float64, dim)
		x1 := make([]float64, dim)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
			x1[i] = 1e200 * rng.NormFloat64()
		}
		if dim > 0 {
			x0[rng.IntN(dim)] = math.Copysign(0, -1)
			x0[rng.IntN(dim)] = 5 * math.SmallestNonzeroFloat64
			x1[rng.IntN(dim)] = math.Copysign(0, -1)
		}
		row := func(j int) []float64 { return mat[j*dim : (j+1)*dim] }
		want0 := make([]float64, maxRows)
		want1 := make([]float64, maxRows)
		for j := range want0 {
			want0[j], want1[j] = Dot(row(j), x0), Dot(row(j), x1)
			for _, v := range []float64{want0[j], want1[j], SqL2(row(j), x0)} {
				if v != v {
					nans++
				} else if !math.IsInf(v, 0) {
					finite++
				}
			}
		}
		for _, avx := range bodies {
			useAVX = avx
			for m := 1; m <= maxRows; m++ {
				one := make([]float64, m)
				two0 := make([]float64, m)
				two1 := make([]float64, m)
				DotRows(one, mat[:m*dim], x0)
				DotRows2(two0, two1, mat[:m*dim], x0, x1)
				for j := 0; j < m; j++ {
					if !same(one[j], want0[j]) {
						t.Fatalf("avx=%v dim=%d m=%d: DotRows row %d = %v (%#x), Dot %v (%#x)",
							avx, dim, m, j, one[j], math.Float64bits(one[j]), want0[j], math.Float64bits(want0[j]))
					}
					if !same(two0[j], want0[j]) || !same(two1[j], want1[j]) {
						t.Fatalf("avx=%v dim=%d m=%d: DotRows2 row %d = (%v, %v), Dot (%v, %v)",
							avx, dim, m, j, two0[j], two1[j], want0[j], want1[j])
					}
				}
			}
			for g := 0; g+4 <= maxRows; g++ {
				for _, q := range [][]float64{x0, x1} {
					var out [4]float64
					SqL2x4(&out, row(g), row(g+1), row(g+2), row(g+3), q)
					for j, v := range out {
						if want := SqL2(row(g+j), q); !same(v, want) {
							t.Fatalf("avx=%v dim=%d rows %d-%d: SqL2x4[%d] = %v (%#x), SqL2 %v (%#x)",
								avx, dim, g, g+3, j, v, math.Float64bits(v), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
	if nans == 0 || finite < 1000 {
		t.Fatalf("inputs gave %d NaN and %d finite sums, want some NaN and at least 1000 finite", nans, finite)
	}
}

// fourLaneInputs returns n rows of dim values in six kinds by row mod 6:
// all −0; denormals; 1e200-scale values; standard normal values with a
// −0, a denormal and a 1e200 sprinkled in; standard normal values; and
// standard normal values with a +Inf, a −Inf or a NaN.
func fourLaneInputs(rng *rand.Rand, n, dim int) []float64 {
	flat := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		for i := range row {
			switch r % 6 {
			case 0:
				row[i] = math.Copysign(0, -1)
			case 1:
				row[i] = math.SmallestNonzeroFloat64 * float64(rng.IntN(1<<20)-1<<19)
			case 2:
				row[i] = 1e200 * rng.NormFloat64()
			default:
				row[i] = rng.NormFloat64()
			}
		}
		if dim == 0 {
			continue
		}
		switch r % 6 {
		case 3:
			row[rng.IntN(dim)] = math.Copysign(0, -1)
			row[rng.IntN(dim)] = 3 * math.SmallestNonzeroFloat64
			row[rng.IntN(dim)] = 1e200
		case 5:
			row[rng.IntN(dim)] = [3]float64{math.Inf(1), math.Inf(-1), math.NaN()}[r/6%3]
		}
	}
	return flat
}

func inf(sign int) float64   { return math.Inf(sign) }
func isNaN64(v float64) bool { return v != v }
