package vec

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSqL2(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{0}, []float64{0}, 0},
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{[]float64{0, 0}, []float64{3, 4}, 25},
		{[]float64{1, 1, 1, 1, 1}, []float64{0, 0, 0, 0, 0}, 5},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := SqL2(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("SqL2(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSqL2UnrolledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 100} {
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var naive float64
		for i := range a {
			diff := a[i] - b[i]
			naive += diff * diff
		}
		if got := SqL2(a, b); !almostEq(got, naive, 1e-9*(1+naive)) {
			t.Errorf("dim %d: SqL2=%v naive=%v", d, got, naive)
		}
	}
}

func TestDotUnrolledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, d := range []int{1, 3, 4, 9, 64, 129} {
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		var naive float64
		for i := range a {
			naive += a[i] * b[i]
		}
		if got := Dot(a, b); !almostEq(got, naive, 1e-9*(1+math.Abs(naive))) {
			t.Errorf("dim %d: Dot=%v naive=%v", d, got, naive)
		}
	}
}

// DotRows and DotRows2 must reproduce Dot bit for bit on every dim: the
// LSH index hashes with them and its buckets are defined by Dot's sums.
// Dims 1–67 cover the 4-lane loop with every tail length.
func TestDotRowsMatchDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const m = 3
	for dim := 1; dim <= 67; dim++ {
		mat := make([]float64, m*dim)
		x0 := make([]float64, dim)
		x1 := make([]float64, dim)
		for i := range mat {
			mat[i] = rng.NormFloat64()
		}
		for i := range x0 {
			x0[i] = rng.NormFloat64() * 100
			x1[i] = rng.Float64()
		}
		one := make([]float64, m)
		two0 := make([]float64, m)
		two1 := make([]float64, m)
		DotRows(one, mat, x0)
		DotRows2(two0, two1, mat, x0, x1)
		for j := 0; j < m; j++ {
			w := mat[j*dim : (j+1)*dim]
			want0, want1 := Dot(w, x0), Dot(w, x1)
			if math.Float64bits(one[j]) != math.Float64bits(want0) {
				t.Fatalf("dim %d row %d: DotRows %v, Dot %v", dim, j, one[j], want0)
			}
			if math.Float64bits(two0[j]) != math.Float64bits(want0) || math.Float64bits(two1[j]) != math.Float64bits(want1) {
				t.Fatalf("dim %d row %d: DotRows2 (%v, %v), Dot (%v, %v)", dim, j, two0[j], two1[j], want0, want1)
			}
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SqL2([]float64{1}, []float64{1, 2})
}

func TestMetricDistance(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := L2.Distance(a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("L2 = %v want 5", got)
	}
	if got := SquaredL2.Distance(a, b); !almostEq(got, 25, 1e-12) {
		t.Errorf("SquaredL2 = %v want 25", got)
	}
	if got := L1.Distance(a, b); !almostEq(got, 7, 1e-12) {
		t.Errorf("L1 = %v want 7", got)
	}
	if got := Cosine.Distance([]float64{1, 0}, []float64{1, 0}); !almostEq(got, 0, 1e-12) {
		t.Errorf("Cosine same direction = %v want 0", got)
	}
	if got := Cosine.Distance([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("Cosine orthogonal = %v want 1", got)
	}
	if got := Cosine.Distance([]float64{0, 0}, []float64{1, 0}); !almostEq(got, 1, 1e-12) {
		t.Errorf("Cosine zero vector = %v want 1", got)
	}
}

func TestMetricString(t *testing.T) {
	for m, want := range map[Metric]string{L2: "l2", SquaredL2: "sql2", L1: "l1", Cosine: "cosine"} {
		if m.String() != want {
			t.Errorf("String(%d) = %q want %q", int(m), m.String(), want)
		}
	}
}

// Property: L2 satisfies the metric axioms (symmetry, identity, triangle
// inequality) on random vectors.
func TestL2MetricAxioms(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := []float64{clamp(ax), clamp(ay)}
		b := []float64{clamp(bx), clamp(by)}
		c := []float64{clamp(cx), clamp(cy)}
		dab := L2Dist(a, b)
		dba := L2Dist(b, a)
		if !almostEq(dab, dba, 1e-9) {
			return false
		}
		if L2Dist(a, a) != 0 {
			return false
		}
		rhs := dab + L2Dist(b, c)
		return L2Dist(a, c) <= rhs+1e-9*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArgsort(t *testing.T) {
	d := []float64{3, 1, 2, 1}
	got := Argsort(d)
	want := []int{1, 3, 2, 0} // stable: ties by index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Argsort(%v) = %v want %v", d, got, want)
		}
	}
}

func TestArgsortIsSortingPermutation(t *testing.T) {
	f := func(raw []float64) bool {
		d := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d = append(d, v)
			}
		}
		idx := Argsort(d)
		if len(idx) != len(d) {
			return false
		}
		seen := make([]bool, len(d))
		for _, i := range idx {
			if i < 0 || i >= len(d) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return sort.SliceIsSorted(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArgsortBy(t *testing.T) {
	vals := []float64{5, -1, 3}
	idx := ArgsortBy(len(vals), func(i int) float64 { return vals[i] })
	want := []int{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("ArgsortBy = %v want %v", idx, want)
		}
	}
}

func TestDistances(t *testing.T) {
	pts := [][]float64{{0, 0}, {3, 4}, {6, 8}}
	q := []float64{0, 0}
	out := Distances(L2, pts, q, nil)
	want := []float64{0, 5, 10}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Fatalf("Distances = %v want %v", out, want)
		}
	}
	// Reuse buffer.
	buf := make([]float64, 8)
	out2 := Distances(L2, pts, q, buf)
	if len(out2) != 3 {
		t.Fatalf("Distances reuse len = %d want 3", len(out2))
	}
}

func TestScaleAXPYClone(t *testing.T) {
	a := []float64{1, 2}
	Scale(a, 2)
	if a[0] != 2 || a[1] != 4 {
		t.Fatalf("Scale: %v", a)
	}
	AXPY(a, 3, []float64{1, 1})
	if a[0] != 5 || a[1] != 7 {
		t.Fatalf("AXPY: %v", a)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Fatal("Clone aliases input")
	}
}

func TestMeanSumMinMax(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Error("Sum wrong")
	}
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
}

func TestNorm(t *testing.T) {
	if !almostEq(Norm([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm wrong")
	}
}

func BenchmarkSqL2Dim128(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := make([]float64, 128)
	y := make([]float64, 128)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SqL2(x, y)
	}
}
