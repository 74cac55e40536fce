package lsh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"knnshapley/internal/dataset"
	"knnshapley/internal/kheap"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

func TestCollisionProbLimits(t *testing.T) {
	if got := CollisionProb(0, 1); got != 1 {
		t.Fatalf("f(0) = %v want 1", got)
	}
	if got := CollisionProb(1e9, 1); got > 1e-6 {
		t.Fatalf("f(inf) = %v want ~0", got)
	}
	// Probability bounds.
	for c := 0.01; c < 20; c *= 1.5 {
		p := CollisionProb(c, 2)
		if p < 0 || p > 1 {
			t.Fatalf("f(%v) = %v outside [0,1]", c, p)
		}
	}
}

func TestCollisionProbMonotoneDecreasing(t *testing.T) {
	prev := 1.1
	for c := 0.05; c < 30; c *= 1.2 {
		p := CollisionProb(c, 1.5)
		if p > prev+1e-12 {
			t.Fatalf("f not decreasing at c=%v: %v > %v", c, p, prev)
		}
		prev = p
	}
}

func TestCollisionProbIncreasingInR(t *testing.T) {
	// Wider buckets collide more.
	prev := 0.0
	for r := 0.1; r < 10; r *= 1.5 {
		p := CollisionProb(1, r)
		if p < prev-1e-12 {
			t.Fatalf("f not increasing in r at %v", r)
		}
		prev = p
	}
}

func TestCollisionProbMatchesMonteCarlo(t *testing.T) {
	// Empirical collision frequency of the actual hash function must match
	// the closed form.
	rng := rand.New(rand.NewPCG(3, 3))
	dim := 8
	for _, c := range []float64{0.5, 1, 2} {
		r := 1.5
		want := CollisionProb(c, r)
		hits, trials := 0, 20000
		a := make([]float64, dim)
		b := make([]float64, dim)
		for i := 0; i < trials; i++ {
			// Two points at distance exactly c.
			for d := range a {
				a[d] = rng.NormFloat64()
				b[d] = a[d]
			}
			dir := rng.IntN(dim)
			b[dir] += c
			// One random hash function.
			var pa, pb float64
			for d := range a {
				w := rng.NormFloat64()
				pa += w * a[d]
				pb += w * b[d]
			}
			off := rng.Float64() * r
			if floorInt((pa+off)/r) == floorInt((pb+off)/r) {
				hits++
			}
		}
		got := float64(hits) / float64(trials)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("c=%v: empirical %v vs closed form %v", c, got, want)
		}
	}
}

func TestGExponent(t *testing.T) {
	// Higher contrast -> lower exponent.
	r := 1.5
	g2 := GExponent(2, r)
	g12 := GExponent(1.2, r)
	if g2 >= g12 {
		t.Fatalf("g(2)=%v should be < g(1.2)=%v", g2, g12)
	}
	// Contrast 1 means neighbor indistinguishable from random: g = 1.
	if g1 := GExponent(1, r); math.Abs(g1-1) > 1e-9 {
		t.Fatalf("g(1) = %v want 1", g1)
	}
	// Contrast < 1 (neighbor farther than random — adversarial) gives g > 1.
	if gBad := GExponent(0.8, r); gBad <= 1 {
		t.Fatalf("g(0.8) = %v want > 1", gBad)
	}
}

func TestOptimalR(t *testing.T) {
	r, g := OptimalR(1.5)
	if r <= 0 {
		t.Fatalf("r = %v", r)
	}
	if g >= 1 {
		t.Fatalf("g = %v want < 1 for contrast 1.5", g)
	}
	// The grid minimum must beat an arbitrary width.
	if gg := GExponent(1.5, 8); g > gg {
		t.Fatalf("grid search missed: %v > %v", g, gg)
	}
}

func TestNumHashBitsAndTables(t *testing.T) {
	m := NumHashBits(100000, 1, 1)
	if m < 1 {
		t.Fatalf("m = %d", m)
	}
	if m2 := NumHashBits(100000, 1, 2); m2 <= m {
		t.Fatalf("alpha should scale m: %d vs %d", m2, m)
	}
	l := NumTables(10000, 0.5, 5, 0.1)
	if l < 1 {
		t.Fatalf("l = %d", l)
	}
	if l2 := NumTables(10000, 0.8, 5, 0.1); l2 <= l {
		t.Fatal("higher exponent should need more tables")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Params{M: 1, L: 1, R: 1}, 0); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Build([][]float64{{1}}, Params{M: 0, L: 1, R: 1}, 0); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Build([][]float64{{1}}, Params{M: 1, L: 1, R: -1}, 0); err == nil {
		t.Error("negative R accepted")
	}
	if _, err := Build([][]float64{{1, 2}, {3}}, Params{M: 1, L: 1, R: 1}, 0); err == nil {
		t.Error("ragged rows accepted")
	}
}

// refTable is the map-based table layout the CSR index replaced, kept as
// the reference the equivalence test compares against: one vec.Dot per
// projection, one map from signature to the ascending ids hashed there.
type refTable struct {
	proj    [][]float64
	offset  []float64
	buckets map[uint64][]int
}

// buildRef builds the reference tables from the same seeded stream as
// Build: per table, per projection, dim normals and then the offset.
func buildRef(data [][]float64, p Params) []refTable {
	dim := len(data[0])
	rng := rand.New(rand.NewPCG(p.Seed, 0x853c49e6748fea9b))
	tables := make([]refTable, p.L)
	for t := range tables {
		tb := refTable{proj: make([][]float64, p.M), offset: make([]float64, p.M), buckets: map[uint64][]int{}}
		for j := range tb.proj {
			tb.proj[j] = make([]float64, dim)
			for d := range tb.proj[j] {
				tb.proj[j][d] = rng.NormFloat64()
			}
			tb.offset[j] = rng.Float64() * p.R
		}
		for i, x := range data {
			key := tb.signature(x, p.R)
			tb.buckets[key] = append(tb.buckets[key], i)
		}
		tables[t] = tb
	}
	return tables
}

func (tb *refTable) signature(x []float64, r float64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for j, w := range tb.proj {
		u := uint32(int32(floorInt((vec.Dot(w, x) + tb.offset[j]) / r)))
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64((u >> uint(shift)) & 0xff)
			h *= prime64
		}
	}
	return h
}

// refQuery is QueryTables over the reference tables.
func refQuery(tables []refTable, data [][]float64, r float64, q []float64, k, l int) Result {
	l = min(l, len(tables))
	if k <= 0 || l <= 0 {
		return Result{}
	}
	seen := map[int]bool{}
	h := kheap.New(k)
	for _, tb := range tables[:l] {
		for _, i := range tb.buckets[tb.signature(q, r)] {
			if !seen[i] {
				seen[i] = true
				h.Push(i, vec.L2Dist(data[i], q))
			}
		}
	}
	res := Result{Candidates: len(seen)}
	for _, it := range h.Sorted() {
		res.IDs = append(res.IDs, it.ID)
		res.Dists = append(res.Dists, it.Key)
	}
	return res
}

// The CSR index must hold exactly the reference's buckets and answer every
// query identically, for every worker count. The cases cover N odd (the
// build hashes rows in pairs), dims off the kernel's 4-lane stride, M=1 and
// L=1, and widths from mostly-singleton to heavily shared buckets.
func TestBuildMatchesMapReference(t *testing.T) {
	cases := []struct {
		n, dim, m, l int
		r            float64
		seed         uint64
	}{
		{n: 1, dim: 3, m: 2, l: 3, r: 1, seed: 1},
		{n: 37, dim: 5, m: 3, l: 4, r: 2, seed: 2},
		{n: 101, dim: 7, m: 1, l: 1, r: 0.5, seed: 3},
		{n: 64, dim: 4, m: 2, l: 16, r: 4, seed: 4},
		{n: 250, dim: 64, m: 19, l: 6, r: 8, seed: 5},
		{n: 199, dim: 67, m: 4, l: 9, r: 6, seed: 6},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewPCG(c.seed, 99))
		data := make([][]float64, c.n)
		for i := range data {
			data[i] = make([]float64, c.dim)
			for d := range data[i] {
				data[i][d] = rng.NormFloat64()
			}
		}
		// Some exact duplicates, so buckets always share points.
		for i := 3; i < c.n; i += 5 {
			copy(data[i], data[i-3])
		}
		p := Params{M: c.m, L: c.l, R: c.r, Seed: c.seed}
		ref := buildRef(data, p)
		queries := append(data[:min(c.n, 4):min(c.n, 4)], make([]float64, c.dim))
		for _, workers := range []int{1, 3} {
			idx, err := Build(data, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			for ti, tb := range idx.tables {
				rt := ref[ti]
				if len(tb.keys) != len(rt.buckets) {
					t.Fatalf("%+v table %d: %d buckets, reference has %d", c, ti, len(tb.keys), len(rt.buckets))
				}
				for b, key := range tb.keys {
					var got []int
					for _, id := range tb.ids[tb.starts[b]:tb.starts[b+1]] {
						got = append(got, int(id))
					}
					if want := rt.buckets[key]; !slices.Equal(got, want) {
						t.Fatalf("%+v table %d bucket %#x: ids %v, reference %v", c, ti, key, got, want)
					}
				}
			}
			for qi, q := range queries {
				for _, l := range []int{1, (c.l + 1) / 2, c.l} {
					for _, k := range []int{1, 5, c.n + 3} {
						got, want := idx.QueryTables(q, k, l), refQuery(ref, data, c.r, q, k, l)
						if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Dists, want.Dists) || got.Candidates != want.Candidates {
							t.Fatalf("%+v workers=%d query %d k=%d l=%d: got %+v, reference %+v", c, workers, qi, k, l, got, want)
						}
					}
				}
				if got, want := idx.Query(q, 5), refQuery(ref, data, c.r, q, 5, c.l); !slices.Equal(got.IDs, want.IDs) || got.Candidates != want.Candidates {
					t.Fatalf("%+v workers=%d Query %d: got %+v, reference %+v", c, workers, qi, got, want)
				}
			}
			// Groups of 1 to 9 queries (past GroupSize) and one that repeats
			// a query, through one result slice whose arrays are reused.
			pool := slices.Clone(queries)
			for i := 0; len(pool) < 9; i++ {
				pool = append(pool, data[(7*i+1)%c.n])
			}
			groups := [][][]float64{{pool[1], pool[0], pool[1]}}
			for g := 1; g <= 9; g++ {
				groups = append(groups, pool[:g])
			}
			res := make([]Result, 9)
			for _, group := range groups {
				for _, l := range []int{1, (c.l + 1) / 2, c.l} {
					for _, k := range []int{c.n + 3, 1, 5} {
						idx.QueryGroup(res[:len(group)], group, k, l)
						for qi, q := range group {
							if got, want := res[qi], refQuery(ref, data, c.r, q, k, l); !sameResult(got, want) {
								t.Fatalf("%+v workers=%d group of %d, query %d k=%d l=%d: got %+v, reference %+v", c, workers, len(group), qi, k, l, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// sameResult reports whether two query results agree bit for bit.
func sameResult(a, b Result) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return slices.Equal(a.IDs, b.IDs) && slices.EqualFunc(a.Dists, b.Dists, sameBits) && a.Candidates == b.Candidates
}

// FuzzQueryGroup checks QueryGroup against the map-based reference, bit for
// bit, on small data with duplicate and all-zero rows: every M, L, width R,
// group size 1–8, table prefix l (0 and past L included) and depth k (0 and
// past N included).
func FuzzQueryGroup(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(5), uint8(3), uint8(4), 2.0, uint8(7), uint8(4), uint8(5))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint8(1), 0.5, uint8(0), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(200), uint8(64), uint8(19), uint8(6), 8.0, uint8(2), uint8(6), uint8(10))
	f.Add(uint64(4), uint8(9), uint8(3), uint8(2), uint8(3), 50.0, uint8(4), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, m, l uint8, r float64, g, lq, k uint8) {
		if n == 0 || !(r > 1e-3 && r < 1e3) {
			t.Skip()
		}
		d := int(dim)%70 + 1
		p := Params{M: int(m)%24 + 1, L: int(l)%16 + 1, R: r, Seed: seed}
		rng := rand.New(rand.NewPCG(seed, 5))
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, d)
			switch {
			case i%7 == 3: // an all-zero row
			case i%5 == 4:
				copy(data[i], data[i-1])
			default:
				for j := range data[i] {
					data[i][j] = rng.NormFloat64()
				}
			}
		}
		idx, err := Build(data, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref := buildRef(data, p)
		qs := make([][]float64, int(g)%GroupSize+1)
		for j := range qs {
			switch j % 3 {
			case 0:
				qs[j] = data[rng.IntN(len(data))]
			case 1:
				qs[j] = make([]float64, d)
				for i := range qs[j] {
					qs[j][i] = rng.NormFloat64()
				}
			default:
				qs[j] = make([]float64, d)
			}
		}
		kk, ll := int(k)%(len(data)+3), int(lq)%(p.L+2)
		res := make([]Result, len(qs))
		idx.QueryGroup(res, qs, kk, ll)
		for j, q := range qs {
			if want := refQuery(ref, data, r, q, kk, ll); !sameResult(res[j], want) {
				t.Fatalf("%+v k=%d l=%d query %d of %d: got %+v, reference %+v", p, kk, ll, j, len(qs), res[j], want)
			}
		}
	})
}

func TestQueryFindsExactNeighborsOnEasyData(t *testing.T) {
	d := dataset.DeepLike(2000, 1)
	rng := rand.New(rand.NewPCG(7, 7))
	tuned := Tune(d.X, d.X, 10, 0.1, 1, 512, 99, rng)
	idx, err := Build(d.X, tuned.Params, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.DeepLike(30, 2)
	var recallSum float64
	for _, q := range queries.X {
		truth := knn.Neighbors(d.X, q, 10, vec.L2)
		got := idx.Query(q, 10)
		recallSum += Recall(truth, got.IDs)
	}
	if avg := recallSum / 30; avg < 0.9 {
		t.Fatalf("average recall %v < 0.9 on high-contrast data (params %+v, g=%v)",
			avg, tuned.Params, tuned.G)
	}
}

func TestQueryRecallImprovesWithTables(t *testing.T) {
	d := dataset.GistLike(1500, 3)
	rng := rand.New(rand.NewPCG(17, 17))
	tuned := Tune(d.X, d.X, 5, 0.1, 1, 256, 5, rng)
	idx, err := Build(d.X, tuned.Params, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.GistLike(20, 4)
	recallAt := func(l int) float64 {
		var s float64
		for _, q := range queries.X {
			truth := knn.Neighbors(d.X, q, 5, vec.L2)
			got := idx.QueryTables(q, 5, l)
			s += Recall(truth, got.IDs)
		}
		return s / float64(len(queries.X))
	}
	few := recallAt(1)
	all := recallAt(idx.Tables())
	if all < few-1e-9 {
		t.Fatalf("recall decreased with more tables: %v -> %v", few, all)
	}
	if all < 0.75 {
		t.Fatalf("full-table recall %v too low", all)
	}
}

func TestQueryResultsSortedAndDeduped(t *testing.T) {
	d := dataset.MNISTLike(500, 5)
	idx, err := Build(d.X, Params{M: 4, L: 8, R: 1, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Query(d.X[0], 20)
	seen := map[int]bool{}
	for i, id := range res.IDs {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		if i > 0 && res.Dists[i] < res.Dists[i-1] {
			t.Fatal("distances not sorted")
		}
	}
	if len(res.IDs) == 0 || res.IDs[0] != 0 {
		t.Fatalf("query point itself should be its own nearest neighbor: %v", res.IDs)
	}
	if res.Candidates < len(res.IDs) {
		t.Fatal("candidate count below returned count")
	}
}

func TestQueryEdgeCases(t *testing.T) {
	d := dataset.MNISTLike(50, 6)
	idx, _ := Build(d.X, Params{M: 2, L: 2, R: 1, Seed: 1}, 0)
	if res := idx.Query(d.X[0], 0); len(res.IDs) != 0 {
		t.Fatal("k=0 should return nothing")
	}
	if res := idx.QueryTables(d.X[0], 5, 0); len(res.IDs) != 0 {
		t.Fatal("l=0 should return nothing")
	}
	// l beyond table count is clamped.
	res := idx.QueryTables(d.X[0], 5, 100)
	if res.Candidates == 0 {
		t.Fatal("clamped l returned nothing")
	}
}

func TestRecall(t *testing.T) {
	if Recall(nil, nil) != 1 {
		t.Fatal("empty truth should be recall 1")
	}
	if got := Recall([]int{1, 2, 3, 4}, []int{2, 4, 9}); got != 0.5 {
		t.Fatalf("Recall = %v want 0.5", got)
	}
}

func TestEstimateContrastOrdering(t *testing.T) {
	// Figure 9a ordering: deep > gist > dog-fish at K* = 100.
	rng := rand.New(rand.NewPCG(23, 29))
	deep := dataset.DeepLike(1500, 1)
	gist := dataset.GistLike(1500, 1)
	fish := dataset.DogFishLike(1500, 1)
	cDeep := EstimateContrast(deep.X, deep.X, 100, 20, 100, rng)
	cGist := EstimateContrast(gist.X, gist.X, 100, 20, 100, rng)
	cFish := EstimateContrast(fish.X, fish.X, 100, 20, 100, rng)
	if !(cDeep.CK > cGist.CK && cGist.CK > cFish.CK) {
		t.Fatalf("contrast ordering violated: deep=%v gist=%v dogfish=%v",
			cDeep.CK, cGist.CK, cFish.CK)
	}
	if cFish.CK <= 1 {
		t.Fatalf("dogfish contrast %v should still exceed 1", cFish.CK)
	}
}

func TestTuneProducesValidParams(t *testing.T) {
	d := dataset.GistLike(800, 9)
	rng := rand.New(rand.NewPCG(31, 31))
	tuned := Tune(d.X, d.X, 8, 0.1, 1, 128, 5, rng)
	if err := tuned.Params.validate(); err != nil {
		t.Fatal(err)
	}
	if tuned.G <= 0 || tuned.G >= 1 {
		t.Fatalf("g = %v want in (0,1) for contrast %v", tuned.G, tuned.Contrast.CK)
	}
	if tuned.Params.L > 128 {
		t.Fatalf("table cap ignored: %d", tuned.Params.L)
	}
}

// BenchmarkQuery answers one ann_index batch: 16 queries against the index
// the benchmark persists (N=5,000 MNIST-like rows, dim 64, tuned for
// K*=10 and δ=0.1 with index seed 7, which caps it at 512 tables), in
// groups of 1, 2, 4 and 8 queries.
func BenchmarkQuery(b *testing.B) {
	d := dataset.MNISTLike(5000, 1)
	// The tuning stream core.NewLSHValuer draws for seed 7.
	rng := rand.New(rand.NewPCG(7, 0x94d049bb133111eb))
	tuned := Tune(d.X, d.X, 10, 0.1, 1, 512, 7, rng)
	idx, err := Build(d.X, tuned.Params, 0)
	if err != nil {
		b.Fatal(err)
	}
	qs := dataset.MNISTLike(16, 2).X
	res := make([]Result, len(qs))
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("group=%d", g), func(b *testing.B) {
			for b.Loop() {
				for lo := 0; lo < len(qs); lo += g {
					idx.QueryGroup(res[lo:lo+g], qs[lo:lo+g], 10, idx.Tables())
				}
			}
		})
	}
}

// BenchmarkBuild hashes the ann_index benchmark's shape (N=5000, dim 64,
// M=19) into 64 tables.
func BenchmarkBuild(b *testing.B) {
	d := dataset.MNISTLike(5000, 1)
	p := Params{M: 19, L: 64, R: 4, Seed: 1}
	for b.Loop() {
		if _, err := Build(d.X, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}
