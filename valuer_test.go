package knnshapley

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// A session's LSH and k-d indexes are built once per parameter set and
// reused by every later call — the point of holding a Valuer open.
func TestValuerIndexBuiltOnce(t *testing.T) {
	train := SynthDeep(600, 7)
	test := SynthDeep(6, 8)
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first, err := v.KD(ctx, test, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if v.indexBuilds != 1 {
		t.Fatalf("after first KD call: %d index builds, want 1", v.indexBuilds)
	}
	second, err := v.KD(ctx, test, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if v.indexBuilds != 1 {
		t.Fatalf("after second KD call: %d index builds, want 1 (cache miss)", v.indexBuilds)
	}
	for i := range first.Values {
		if first.Values[i] != second.Values[i] {
			t.Fatalf("cached index changed value %d: %v != %v", i, first.Values[i], second.Values[i])
		}
	}
	// A different eps is a different truncation depth — it must build anew.
	if _, err := v.KD(ctx, test, 0.5); err != nil {
		t.Fatal(err)
	}
	if v.indexBuilds != 2 {
		t.Fatalf("after KD with new eps: %d index builds, want 2", v.indexBuilds)
	}

	lsh1, err := v.LSH(ctx, test, 0.1, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v.indexBuilds != 3 {
		t.Fatalf("after first LSH call: %d index builds, want 3", v.indexBuilds)
	}
	lsh2, err := v.LSH(ctx, test, 0.1, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v.indexBuilds != 3 {
		t.Fatalf("after second LSH call: %d index builds, want 3 (cache miss)", v.indexBuilds)
	}
	for i := range lsh1.Values {
		if lsh1.Values[i] != lsh2.Values[i] {
			t.Fatalf("cached LSH index changed value %d", i)
		}
	}
}

// Concurrent first calls must agree on a single cached index (run under
// -race by verify.sh).
func TestValuerIndexConcurrentBuild(t *testing.T) {
	train := SynthDeep(300, 3)
	test := SynthDeep(4, 4)
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := v.KD(context.Background(), test, 0.1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if v.indexBuilds != 1 {
		t.Fatalf("%d index builds under concurrency, want 1", v.indexBuilds)
	}
}

// The LSH build hashes its tables on the session's Workers goroutines, and
// each engine batch's queries are split over as many parts; the index, and
// with it every value, must not depend on the worker count or the batch
// size. 37 test points leave a short last batch at every batch size here.
func TestLSHWorkersBitIdentical(t *testing.T) {
	train := SynthDeep(701, 5)
	test := SynthDeep(37, 6)
	var ref []float64
	for _, workers := range []int{1, 2, 3, 4} {
		for _, batch := range []int{1, 7, 8, 9, 64} {
			v, err := New(train, WithK(3), WithWorkers(workers), WithBatchSize(batch))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := v.LSH(context.Background(), test, 0.1, 0.1, 3)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = rep.Values
				continue
			}
			for i := range ref {
				if math.Float64bits(rep.Values[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("workers=%d batch=%d value %d: %v, workers=1 batch=1 gave %v", workers, batch, i, rep.Values[i], ref[i])
				}
			}
		}
	}
}

func assertBitIdentical(t *testing.T, name string, old, now []float64) {
	t.Helper()
	if len(old) != len(now) {
		t.Fatalf("%s: %d values vs %d", name, len(old), len(now))
	}
	for i := range old {
		if old[i] != now[i] {
			t.Fatalf("%s: value %d diverged: %v != %v (bitwise)", name, i, old[i], now[i])
		}
	}
}

// Reports must carry the method tag and a non-zero duration so callers can
// log one uniform record per valuation.
func TestReportMetadata(t *testing.T) {
	train := SynthMNIST(80, 5)
	test := SynthMNIST(5, 6)
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "exact" || len(rep.Values) != train.N() {
		t.Fatalf("report %+v", rep)
	}
	mc, err := v.MonteCarlo(ctx, test, MCParams{Bound: Fixed, T: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Method != "montecarlo" || mc.Permutations == 0 || mc.Budget != 32 || mc.UtilityEvals == 0 {
		t.Fatalf("mc report %+v", mc)
	}
	kd, err := v.KD(ctx, test, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if kd.Method != "kd" || kd.KStar != 4 {
		t.Fatalf("kd report method=%q kStar=%d", kd.Method, kd.KStar)
	}
}

// New must not mutate a hand-assembled, non-contiguous dataset: the
// session takes a flattened copy instead (datasets from the package
// constructors are already contiguous and used as-is).
func TestNewDoesNotMutateHandBuiltDataset(t *testing.T) {
	rows := [][]float64{{0, 1}, {2, 3}, {4, 5}}
	d := &Dataset{X: rows, Labels: []int{0, 1, 0}, Classes: 2}
	v, err := New(d, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Flat(); ok {
		t.Fatal("New flattened the caller's dataset in place")
	}
	if &d.X[0][0] != &rows[0][0] {
		t.Fatal("New repointed the caller's feature rows")
	}
	if v.Train() == d {
		t.Fatal("session shares the non-contiguous dataset instead of copying")
	}
	if _, ok := v.Train().Flat(); !ok {
		t.Fatal("session copy is not contiguous")
	}
	// The copy must value identically to the original data.
	test := &Dataset{X: [][]float64{{0.1, 1.1}}, Labels: []int{0}, Classes: 2}
	rep, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 3 {
		t.Fatalf("%d values", len(rep.Values))
	}
}

// The baseline estimator is reachable from a session and honors the
// context like every other method.
func TestValuerBaselineMonteCarlo(t *testing.T) {
	train := SynthMNIST(30, 1)
	test := SynthMNIST(3, 2)
	v, err := New(train, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.BaselineMonteCarlo(context.Background(), test, 0.2, 0.2, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "baseline" || rep.Permutations == 0 || len(rep.Values) != train.N() {
		t.Fatalf("report %+v", rep)
	}
}

// Context cancellation reaches the baseline sampler's permutation loop.
func TestCancelBaselineMonteCarlo(t *testing.T) {
	train := SynthMNIST(300, 1)
	test := SynthMNIST(3, 2)
	v, err := New(train, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.BaselineMonteCarlo(ctx, test, 0.01, 0.01, 1<<20, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// An eps below about 1.1e-19 puts 1/eps past math.MaxInt. K* must saturate
// rather than wrap (a wrapped K* collapsed to K and truncated at K), and the
// kd and LSH valuers must cap their retrieval depth at N instead of
// allocating a K*-slot heap.
func TestTinyEpsSaturatesKStar(t *testing.T) {
	train, test := SynthMNIST(150, 1), SynthMNIST(4, 2)
	v, err := New(train, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exact, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1e-19, 1e-30} {
		trunc, err := v.Truncated(ctx, test, eps)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("truncated at eps=%g", eps), exact.Values, trunc.Values)
	}
	kd, err := v.KD(ctx, test, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := v.LSH(ctx, test, 1e-12, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{kd, lsh} {
		if rep.KStar != train.N() {
			t.Errorf("%s at eps=1e-12: K* = %d, want N = %d", rep.Method, rep.KStar, train.N())
		}
	}
}

// With K* >= N the truncated and k-d methods must equal Exact bit for bit,
// also with fewer training points than K: Theorem 1's base case is
// 1[correct]/max(N, K), so three correct points at K=5 are worth 0.2 each
// (summing to ν(I) − ν(∅) = 0.6), not 1/3.
func TestTruncatedAndKDEqualExactBelowK(t *testing.T) {
	ctx := context.Background()
	check := func(train, test *Dataset, k int) {
		t.Helper()
		v, err := New(train, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := v.Exact(ctx, test)
		if err != nil {
			t.Fatal(err)
		}
		trunc, err := v.Truncated(ctx, test, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		kd, err := v.KD(ctx, test, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("N=%d K=%d", train.N(), k)
		assertBitIdentical(t, what+" truncated", exact.Values, trunc.Values)
		assertBitIdentical(t, what+" kd", exact.Values, kd.Values)
	}

	train, err := NewClassificationDataset([][]float64{{0, 0}, {1, 0}, {0, 1}}, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	test, err := NewClassificationDataset([][]float64{{0.2, 0.2}}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(train, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range exact.Values {
		if sv != 0.2 {
			t.Fatalf("exact value %d = %v, want 0.2", i, sv)
		}
	}
	check(train, test, 5)

	for _, n := range []int{1, 3, 8} {
		for _, k := range []int{2, 5, 12} {
			check(SynthMNIST(n, uint64(n)), SynthMNIST(6, 99), k)
		}
	}
}
