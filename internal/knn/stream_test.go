package knn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"knnshapley/internal/dataset"
	"knnshapley/internal/vec"
)

// collect drains a stream with the given batch size, deep-copying each
// TestPoint (stream buffers are reused between batches).
func collect(t *testing.T, s *Stream, batch int) []*TestPoint {
	t.Helper()
	var out []*TestPoint
	dst := make([]*TestPoint, batch)
	for {
		n, err := s.NextBatch(context.Background(), dst)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for _, tp := range dst[:n] {
			cp := *tp
			cp.Dist = append([]float64(nil), tp.Dist...)
			cp.Correct = append([]bool(nil), tp.Correct...)
			out = append(out, &cp)
		}
	}
}

func assertSameTestPoints(t *testing.T, got, want []*TestPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d test points, want %d", len(got), len(want))
	}
	for j := range want {
		g, w := got[j], want[j]
		if g.Kind != w.Kind || g.K != w.K || g.YTest != w.YTest {
			t.Fatalf("test point %d header mismatch: %+v vs %+v", j, g, w)
		}
		for i := range w.Dist {
			if g.Dist[i] != w.Dist[i] {
				t.Fatalf("test point %d dist[%d] = %v, want %v (bitwise)", j, i, g.Dist[i], w.Dist[i])
			}
		}
		for i := range w.Correct {
			if g.Correct[i] != w.Correct[i] {
				t.Fatalf("test point %d correct[%d] mismatch", j, i)
			}
		}
	}
}

// The blocked flat-storage stream must reproduce the eager BuildTestPoints
// distances bit-for-bit, for every batch size and both L2 metrics.
func TestStreamMatchesBuildTestPoints(t *testing.T) {
	train := dataset.MNISTLike(150, 11)
	test := dataset.MNISTLike(23, 12)
	for _, metric := range []vec.Metric{vec.L2, vec.SquaredL2, vec.L1} {
		want, err := BuildTestPoints(UnweightedClass, 3, nil, metric, train, test)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 7, 23, 64} {
			s, err := NewStream(UnweightedClass, 3, nil, metric, train, test)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, s, batch)
			assertSameTestPoints(t, got, want)
		}
	}
}

// Non-contiguous datasets must fall back to the row-wise path and still
// match the eager build.
func TestStreamFallbackWithoutFlatStorage(t *testing.T) {
	train := dataset.MNISTLike(60, 21).Subset([]int{5, 2, 7, 40, 13, 22, 39, 1, 0, 58})
	train.Classes = 10
	test := dataset.MNISTLike(9, 22)
	if _, ok := train.Flat(); ok {
		t.Fatal("subset dataset unexpectedly contiguous")
	}
	want, err := BuildTestPoints(UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTestPoints(t, collect(t, s, 4), want)
}

func TestStreamRegression(t *testing.T) {
	train := dataset.Regression(dataset.RegressionConfig{Name: "r", N: 40, Dim: 6, Noise: 0.1, Seed: 1})
	test := dataset.Regression(dataset.RegressionConfig{Name: "r", N: 11, Dim: 6, Noise: 0.1, Seed: 2})
	want, err := BuildTestPoints(UnweightedRegress, 3, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(UnweightedRegress, 3, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, s, 5)
	if len(got) != len(want) {
		t.Fatalf("%d test points, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j].YTest != want[j].YTest {
			t.Fatalf("test point %d YTest %v, want %v", j, got[j].YTest, want[j].YTest)
		}
		for i := range want[j].Dist {
			if got[j].Dist[i] != want[j].Dist[i] {
				t.Fatalf("test point %d dist[%d] mismatch", j, i)
			}
		}
		if math.Abs(got[j].Y[0]-want[j].Y[0]) != 0 {
			t.Fatalf("test point %d targets differ", j)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	train := dataset.MNISTLike(20, 31)
	test := dataset.MNISTLike(5, 32)
	if _, err := NewStream(UnweightedClass, 0, nil, vec.L2, train, test); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewStream(WeightedClass, 2, nil, vec.L2, train, test); err == nil {
		t.Error("weighted kind without weight accepted")
	}
	reg := dataset.Regression(dataset.RegressionConfig{Name: "r", N: 5, Dim: train.Dim(), Seed: 3})
	if _, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, reg); err == nil {
		t.Error("kind/response mismatch accepted")
	}
	narrow := dataset.Mixture(dataset.MixtureConfig{Name: "m", N: 5, Dim: 3, Classes: 2, Separation: 1, Spread: 1, Seed: 4})
	if _, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, narrow); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestStreamReset(t *testing.T) {
	train := dataset.MNISTLike(30, 41)
	test := dataset.MNISTLike(7, 42)
	s, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(t, s, 3)
	s.Reset()
	second := collect(t, s, 3)
	assertSameTestPoints(t, second, first)
	if s.NumTest() != 7 || s.NumTrain() != 30 {
		t.Fatalf("NumTest/NumTrain = %d/%d", s.NumTest(), s.NumTrain())
	}
}

// A split scan must fill the same tile as a serial one, bit for bit: for
// every batch size from 1 to 17 (so partial last groups are covered), a
// training set below and one above the split threshold, both precisions,
// both Euclidean metrics and flat and row-wise test sets. A row-wise
// training set and a non-Euclidean metric, which take the per-query paths,
// are checked at 17 queries.
func TestStreamWorkersBitIdentical(t *testing.T) {
	// A wide dim keeps N, and so the per-distance Go loops, small.
	const dim = 256
	// Above: even a two-group batch (5 queries) has 2·N·dim ≥ 2·scanGrain.
	big := scanGrain/dim + 100
	// Below: even the 17-query batch (5 groups) stays under 2·scanGrain.
	small := 2*scanGrain/(5*dim) - 100
	rowWise := func(d *dataset.Dataset) *dataset.Dataset {
		idx := make([]int, d.N())
		for i := range idx {
			idx[i] = d.N() - 1 - i
		}
		r := d.Subset(idx)
		r.Classes = d.Classes
		return r
	}
	var every []int
	for nq := 1; nq <= 17; nq++ {
		every = append(every, nq)
	}
	cases := []struct {
		name                string
		precision           Precision
		metric              vec.Metric
		flatTest, flatTrain bool
		nqs                 []int
	}{
		{"float64-L2-flat", Float64, vec.L2, true, true, every},
		{"float64-SquaredL2-rows", Float64, vec.SquaredL2, false, true, every},
		{"float32-L2-rows", Float32, vec.L2, false, true, every},
		{"float32-SquaredL2-flat", Float32, vec.SquaredL2, true, true, every},
		{"float64-L2-rowwise-train", Float64, vec.L2, true, false, []int{17}},
		{"L1", Float64, vec.L1, true, true, []int{17}},
	}
	for _, n := range []int{small, big} {
		train := dataset.Mixture(dataset.MixtureConfig{Name: "m", N: n, Dim: dim, Classes: 3, Separation: 1, Spread: 1, Seed: 5})
		test := dataset.Mixture(dataset.MixtureConfig{Name: "m", N: 17, Dim: dim, Classes: 3, Separation: 1, Spread: 1, Seed: 6})
		for _, c := range cases {
			tr, te := train, test
			if !c.flatTrain {
				tr = rowWise(train)
			}
			if !c.flatTest {
				te = rowWise(test)
			}
			pre := NewPrecomp(tr, c.metric, c.precision)
			// scan returns the first batch of nq test points.
			scan := func(workers, nq int) []*TestPoint {
				s, err := NewStreamPre(UnweightedClass, 3, nil, c.metric, tr, te, pre)
				if err != nil {
					t.Fatal(err)
				}
				s.SetWorkers(workers)
				dst := make([]*TestPoint, nq)
				if got, err := s.NextBatch(context.Background(), dst); err != nil || got != nq {
					t.Fatalf("NextBatch = %d, %v; want %d", got, err, nq)
				}
				return dst
			}
			for _, nq := range c.nqs {
				want := scan(1, nq)
				for _, workers := range []int{2, 3, 8} {
					t.Run(fmt.Sprintf("N=%d/%s/nq=%d/workers=%d", n, c.name, nq, workers), func(t *testing.T) {
						assertSameTestPoints(t, scan(workers, nq), want)
					})
				}
			}
		}
	}
}
