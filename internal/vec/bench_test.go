package vec

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"knnshapley/internal/par"
)

// The storage benchmarks pin the flat row-major win: one query scanned
// against N train rows held either as a contiguous row-major buffer or as a
// slice of independently-allocated rows, plus the norm-precompute GEMV
// kernel that the streaming engine uses and the bucket argsort. Run with:
//
//	go test ./internal/vec -bench 'Scan|NormDot|Argsort' -benchmem
var benchShapes = []struct {
	name   string
	n, dim int
}{
	{"n1000_d32", 1000, 32},
	{"n10000_d64", 10000, 64},
}

// scatteredRows allocates each row separately (the seed's [][]float64
// layout), defeating the contiguity a flat scan enjoys.
func scatteredRows(n, dim int, rng *rand.Rand) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func BenchmarkDistanceScanSlices(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 1))
			rows := scatteredRows(shape.n, shape.dim, rng)
			q := make([]float64, shape.dim)
			out := make([]float64, shape.n)
			b.SetBytes(int64(shape.n * shape.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Distances(SquaredL2, rows, q, out)
			}
		})
	}
}

func BenchmarkDistanceScanFlat(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 1))
			flat, _ := randomFlat(shape.n, shape.dim, rng)
			q := make([]float64, shape.dim)
			out := make([]float64, shape.n)
			b.SetBytes(int64(shape.n * shape.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DistancesFlat(SquaredL2, flat, shape.n, shape.dim, q, out)
			}
		})
	}
}

// BenchmarkSqL2NormDotBatch measures the GEMV-shaped norm-precompute
// kernel at the engine's default batch size, 64 queries against the train
// matrix per call, and on the tile of perfbench's engine_batch workload
// (N=1e5, dim 64, 16 queries), scanned on one goroutine (g1) and split
// into two halves of the training rows on two (g2), the split knn.Stream
// makes there. SetBytes counts one read of the train matrix per query.
func BenchmarkSqL2NormDotBatch(b *testing.B) {
	type normDotCase struct {
		name           string
		n, dim, nq, gs int
	}
	var cases []normDotCase
	for _, shape := range benchShapes {
		cases = append(cases, normDotCase{shape.name, shape.n, shape.dim, 64, 1})
	}
	cases = append(cases, normDotCase{"engine_batch_g1", 100000, 64, 16, 1}, normDotCase{"engine_batch_g2", 100000, 64, 16, 2})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2, 2))
			trainFlat, _ := randomFlat(c.n, c.dim, rng)
			testFlat, _ := randomFlat(c.nq, c.dim, rng)
			norms := SqNorms(nil, trainFlat, c.n, c.dim)
			dst := make([]float64, c.nq*c.n)
			b.SetBytes(int64(c.nq * c.n * c.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				par.For(c.n, c.gs, func(lo, hi int) {
					SqL2NormDotRows(dst, trainFlat, c.n, c.dim, norms, testFlat, c.nq, lo, hi)
				})
			}
		})
	}
}

func BenchmarkSqL2NormDotBatch32(b *testing.B) {
	const batch = 64
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2, 2))
			trainFlat, _ := randomFlat(shape.n, shape.dim, rng)
			testFlat, _ := randomFlat(batch, shape.dim, rng)
			trainFlat32 := ToFloat32(nil, trainFlat)
			testFlat32 := ToFloat32(nil, testFlat)
			norms32 := SqNorms32(nil, trainFlat32, shape.n, shape.dim)
			dst := make([]float64, batch*shape.n)
			b.SetBytes(int64(batch * shape.n * shape.dim * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SqL2NormDotBatch32(dst, trainFlat32, shape.n, shape.dim, norms32, testFlat32, batch)
			}
		})
	}
}

// BenchmarkArgsortDist measures one sort per test point on the distance
// profiles of bucketsort_test.go: the MNIST-like profile at four sizes, a
// uniform one, and every skewed shape at N=1e5. Each case runs the []int
// ordering (ArgsortInto, the weighted and regression kernels' sort) and
// the packed ranking with correctness flags and an offset (PackedInto, the
// exact kernel's and the shard report's). Run with:
//
//	go test ./internal/vec -run '^$' -bench ArgsortDist -benchtime 20x
func BenchmarkArgsortDist(b *testing.B) {
	type sortCase struct {
		shape string
		gen   func(*rand.Rand, int) []float64
		n     int
	}
	var cases []sortCase
	for _, n := range []int{1000, 5000, 20000, 100000} {
		cases = append(cases, sortCase{"mnist", mnistLikeDist, n})
	}
	uniform := func(rng *rand.Rand, n int) []float64 {
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = rng.Float64() * 20
		}
		return dist
	}
	cases = append(cases, sortCase{"uniform", uniform, 1000}, sortCase{"uniform", uniform, 10000})
	for _, sh := range distShapes[1:] {
		cases = append(cases, sortCase{sh.name, sh.gen, 100000})
	}
	for _, c := range cases {
		rng := rand.New(rand.NewPCG(3, 3))
		dist := c.gen(rng, c.n)
		correct := make([]bool, c.n)
		for i := range correct {
			correct[i] = rng.IntN(2) == 0
		}
		b.Run(fmt.Sprintf("%s/n=%d/int", c.shape, c.n), func(b *testing.B) {
			var ds DistSorter
			idx := ds.ArgsortInto(nil, dist)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx = ds.ArgsortInto(idx, dist)
			}
		})
		b.Run(fmt.Sprintf("%s/n=%d/packed", c.shape, c.n), func(b *testing.B) {
			var ds DistSorter
			out := ds.PackedInto(nil, dist, correct, 7, 1<<31)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = ds.PackedInto(out, dist, correct, 7, 1<<31)
			}
		})
	}
}

// annRows, annM and annDim are one LSH table of perfbench's ann_index
// workload: 5,000 training rows of dim 64 hashed through M=19
// projections.
const annRows, annM, annDim = 5000, 19, 64

// BenchmarkDotRows projects every row of an ann_index table one at a
// time, as a query does once per table. Run with:
//
//	go test ./internal/vec -run '^$' -bench 'DotRows|SqL2x4' -benchtime 200x
func BenchmarkDotRows(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	mat, _ := randomFlat(annM, annDim, rng)
	rows, _ := randomFlat(annRows, annDim, rng)
	dst := make([]float64, annM)
	for b.Loop() {
		for r := 0; r < annRows; r++ {
			DotRows(dst, mat, rows[r*annDim:(r+1)*annDim])
		}
	}
}

// BenchmarkDotRows2 projects every row of an ann_index table in pairs,
// as the LSH build does.
func BenchmarkDotRows2(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	mat, _ := randomFlat(annM, annDim, rng)
	rows, _ := randomFlat(annRows, annDim, rng)
	dst0 := make([]float64, annM)
	dst1 := make([]float64, annM)
	for b.Loop() {
		for r := 0; r+2 <= annRows; r += 2 {
			DotRows2(dst0, dst1, mat, rows[r*annDim:(r+1)*annDim], rows[(r+1)*annDim:(r+2)*annDim])
		}
	}
}

// BenchmarkSqL2x4 takes the distances from one query to 5,000 rows of dim
// 64, one row per SqL2 call (SqL2) or four per SqL2x4 call (SqL2x4), as
// the k-d leaf scan and the LSH candidate ranking do.
func BenchmarkSqL2x4(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	data := scatteredRows(annRows, annDim, rng)
	q := data[0]
	b.Run("SqL2", func(b *testing.B) {
		for b.Loop() {
			for _, a := range data {
				SqL2(a, q)
			}
		}
	})
	b.Run("SqL2x4", func(b *testing.B) {
		var out [4]float64
		for b.Loop() {
			for r := 0; r+4 <= annRows; r += 4 {
				SqL2x4(&out, data[r], data[r+1], data[r+2], data[r+3], q)
			}
		}
	})
}
