package core

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// --- Seed-equivalence pins -------------------------------------------------
//
// seedExactClassSV and seedExactRegressSV are verbatim copies of the
// pre-engine implementations. The tests below pin the engine, run with each
// kernel, to the seed outputs within 1e-12 (in practice bit-for-bit: the
// kernels perform the identical arithmetic and the engine reduces in stream
// order) for every worker count.

func seedExactClassSV(tp *knn.TestPoint) []float64 {
	n := tp.N()
	sv := make([]float64, n)
	if n == 0 {
		return sv
	}
	order := tp.Order()
	k := float64(tp.K)
	sv[order[n-1]] = ind(tp.Correct[order[n-1]]) / float64(max(n, tp.K))
	for i := n - 1; i >= 1; i-- {
		cur, next := order[i-1], order[i]
		minKi := float64(min(tp.K, i))
		sv[cur] = sv[next] + (ind(tp.Correct[cur])-ind(tp.Correct[next]))/k*minKi/float64(i)
	}
	return sv
}

func seedExactRegressSV(tp *knn.TestPoint) []float64 {
	n := tp.N()
	sv := make([]float64, n)
	if n == 0 {
		return sv
	}
	order := tp.Order()
	k := float64(tp.K)
	t := tp.YTest
	y := make([]float64, n+1)
	for r, id := range order {
		y[r+1] = tp.Y[id]
	}
	if n == 1 {
		d := y[1]/k - t
		sv[order[0]] = -d*d + t*t
		return sv
	}
	var sumOthers float64
	for r := 1; r < n; r++ {
		sumOthers += y[r]
	}
	nf := float64(n)
	yn := y[n]
	var base float64
	if n > tp.K {
		dN := yn/k - t
		base = -(k-1)/(nf*k)*yn*(yn/k-2*t+sumOthers/(nf-1)) - dN*dN/nf + t*t/nf
	} else {
		base = -(yn/k)*(yn/k) - 2*yn/k*(sumOthers/(2*k)-t)
	}
	sv[order[n-1]] = base
	prefix := make([]float64, n+2)
	for r := 1; r <= n; r++ {
		prefix[r] = prefix[r-1] + y[r]
	}
	suffix := make([]float64, n+3)
	for r := n; r >= 3; r-- {
		lf := float64(r)
		w := float64(min(tp.K, r-1)) * float64(min(tp.K-1, r-2)) / ((lf - 1) * (lf - 2))
		suffix[r] = suffix[r+1] + w*y[r]
	}
	for i := n - 1; i >= 1; i-- {
		fi := float64(i)
		minKi := float64(min(tp.K, i))
		var aSum float64
		if i >= 2 {
			aSum += float64(min(tp.K-1, i-1)) / (fi - 1) * prefix[i-1]
		}
		aSum += y[i] + y[i+1]
		if i+2 <= n {
			aSum += fi / minKi * suffix[i+2]
		}
		delta := (y[i+1] - y[i]) / k * (minKi / fi) * (aSum/k - 2*t)
		sv[order[i-1]] = sv[order[i]] + delta
	}
	return sv
}

// seedAverage is the seed's multi-test reduction: sum per-test vectors in
// test order, then scale by 1/len — the float op sequence the engine must
// reproduce.
func seedAverage(tps []*knn.TestPoint, f func(*knn.TestPoint) []float64) []float64 {
	if len(tps) == 0 {
		return nil
	}
	sv := make([]float64, tps[0].N())
	for _, tp := range tps {
		for i, v := range f(tp) {
			sv[i] += v
		}
	}
	inv := 1 / float64(len(tps))
	for i := range sv {
		sv[i] *= inv
	}
	return sv
}

var engineConfigs = []EngineConfig{{Workers: 1}, {Workers: 3}, {Workers: 16}}

// runTPs averages kern over tps on an engine with cfg.
func runTPs(t *testing.T, cfg EngineConfig, tps []*knn.TestPoint, kern Kernel[*knn.TestPoint]) []float64 {
	t.Helper()
	sv, err := NewEngine[*knn.TestPoint](cfg).Run(context.Background(), NewSliceSource(tps), kern)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestEngineMatchesSeedExactClass(t *testing.T) {
	rng := rand.New(rand.NewPCG(7001, 1))
	tps := make([]*knn.TestPoint, 23)
	for j := range tps {
		tps[j] = randomClassTP(37, 3, 3, rng)
	}
	want := seedAverage(tps, seedExactClassSV)
	for _, cfg := range engineConfigs {
		got := runTPs(t, cfg, tps, ExactClassKernel{N: 37})
		assertClose(t, got, want, 1e-12, "engine exact class vs seed")
	}
}

func TestEngineMatchesSeedExactRegress(t *testing.T) {
	rng := rand.New(rand.NewPCG(7002, 2))
	tps := make([]*knn.TestPoint, 19)
	for j := range tps {
		tps[j] = randomRegressTP(31, 2, rng)
	}
	want := seedAverage(tps, seedExactRegressSV)
	for _, cfg := range engineConfigs {
		got := runTPs(t, cfg, tps, ExactRegressKernel{N: 31})
		assertClose(t, got, want, 1e-12, "engine exact regress vs seed")
	}
}

func TestEngineMatchesSeedTruncated(t *testing.T) {
	rng := rand.New(rand.NewPCG(7003, 3))
	tps := make([]*knn.TestPoint, 17)
	for j := range tps {
		tps[j] = randomClassTP(41, 3, 2, rng)
	}
	const eps = 0.2
	// The seed averaged the (unchanged) per-test truncation; pin the engine
	// to that reduction.
	want := seedAverage(tps, func(tp *knn.TestPoint) []float64 {
		order := tp.Order()
		correct := make([]bool, len(order))
		for rank, id := range order {
			correct[rank] = tp.Correct[id]
		}
		sv := make([]float64, tp.N())
		TruncatedFromRankingInto(order, correct, tp.N(), tp.K, eps, sv)
		return sv
	})
	for _, cfg := range engineConfigs {
		got := runTPs(t, cfg, tps, TruncatedClassKernel{N: 41, Eps: eps})
		assertClose(t, got, want, 1e-12, "engine truncated vs seed")
	}
}

func TestEngineMatchesSeedWeighted(t *testing.T) {
	rng := rand.New(rand.NewPCG(7004, 4))
	tps := make([]*knn.TestPoint, 6)
	for j := range tps {
		tps[j] = randomWeightedTP(11, 2, j%2 == 1, rng)
	}
	// Weighted class and regress must not be mixed in one call.
	classTPs := []*knn.TestPoint{tps[0], tps[2], tps[4]}
	want := seedAverage(classTPs, func(tp *knn.TestPoint) []float64 {
		return countingSV(tp, dataOnlyWeights(tp.N()))
	})
	for _, cfg := range engineConfigs {
		got := runTPs(t, cfg, classTPs, WeightedKernel{N: 11})
		assertClose(t, got, want, 1e-12, "engine weighted vs seed")
	}
}

// The engine's ordered reduction must make results independent of batch
// size and worker count down to the last bit.
func TestEngineDeterministicAcrossSchedules(t *testing.T) {
	rng := rand.New(rand.NewPCG(7005, 5))
	tps := make([]*knn.TestPoint, 29)
	for j := range tps {
		tps[j] = randomClassTP(53, 4, 3, rng)
	}
	kern := ExactClassKernel{N: 53}
	var want []float64
	for _, cfg := range []EngineConfig{
		{Workers: 1, BatchSize: 1},
		{Workers: 7, BatchSize: 4},
		{Workers: 16, BatchSize: 64},
	} {
		got, err := NewEngine[*knn.TestPoint](cfg).Run(context.Background(), NewSliceSource(tps), kern)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %+v: sv[%d] = %v differs from %v", cfg, i, got[i], want[i])
			}
		}
	}
}

// noiseKernel writes a pseudo-random vector per item whose entries span
// many binades, so any change in the order of additions changes the sum.
type noiseKernel struct{ n int }

func (k noiseKernel) OutLen() int { return k.n }
func (k noiseKernel) Compute(_ context.Context, idx int, _ int, _ *Scratch, dst []float64) error {
	rng := rand.New(rand.NewPCG(uint64(idx), 9))
	for j := range dst {
		// Random sign and mantissa, exponent in [2^-40, 2^24).
		x := rng.Uint64()
		dst[j] = math.Float64frombits(uint64(1023-40)<<52 + x>>6 | x<<63)
	}
	return nil
}

// A batch's reduce above reduceGrain per goroutine is split by value-index
// ranges; every index must still add the items in stream order, so the sum
// equals a sequential one bit for bit.
func TestRunSumSplitReduceBitIdentical(t *testing.T) {
	const out, batch, items = 1 << 16, 16, 37
	if batch*out < 4*reduceGrain {
		t.Fatalf("a %d-item batch of %d values does not split four ways", batch, out)
	}
	kern := noiseKernel{n: out}
	want := make([]float64, out)
	vals := make([]float64, out)
	for idx := 0; idx < items; idx++ {
		if err := kern.Compute(context.Background(), idx, 0, nil, vals); err != nil {
			t.Fatal(err)
		}
		for j, v := range vals {
			want[j] += v
		}
	}
	for _, workers := range []int{1, 4} {
		got, count, err := NewEngine[int](EngineConfig{Workers: workers, BatchSize: batch}).
			RunSum(context.Background(), NewSliceSource(make([]int, items)), kern)
		if err != nil {
			t.Fatal(err)
		}
		if count != items {
			t.Fatalf("workers %d: %d items, want %d", workers, count, items)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("workers %d: sum[%d] = %v, want %v (bitwise)", workers, j, got[j], want[j])
			}
		}
	}
}

// --- Bounded concurrency (regression for the seed's unbounded spawn) -------

// concurrencyKernel records the high-water mark of concurrent Compute calls
// and of live goroutines.
type concurrencyKernel struct {
	n          int
	active     atomic.Int64
	maxActive  atomic.Int64
	maxGoronum atomic.Int64
}

func (k *concurrencyKernel) OutLen() int { return k.n }
func (k *concurrencyKernel) Compute(_ context.Context, _ int, _ int, _ *Scratch, _ []float64) error {
	cur := k.active.Add(1)
	atomicMax(&k.maxActive, cur)
	atomicMax(&k.maxGoronum, int64(runtime.NumGoroutine()))
	time.Sleep(50 * time.Microsecond)
	k.active.Add(-1)
	return nil
}

// The seed's averageOver spawned one goroutine per test point before
// throttling on a semaphore; the engine must never create more than Workers
// worker goroutines no matter how many items stream through.
func TestEngineBoundsGoroutines(t *testing.T) {
	const workers = 3
	const items = 500
	base := runtime.NumGoroutine()
	kern := &concurrencyKernel{n: 1}
	work := make([]int, items)
	_, count, err := NewEngine[int](EngineConfig{Workers: workers, BatchSize: 32}).
		RunSum(context.Background(), NewSliceSource(work), kern)
	if err != nil {
		t.Fatal(err)
	}
	if count != items {
		t.Fatalf("processed %d of %d items", count, items)
	}
	if got := kern.maxActive.Load(); got > workers {
		t.Fatalf("%d concurrent kernel computations, want <= %d", got, workers)
	}
	// Generous slack for test-framework and GC goroutines; the seed bug
	// would show ~items extra goroutines here.
	if got := kern.maxGoronum.Load(); got > int64(base+workers+20) {
		t.Fatalf("%d live goroutines (base %d), the pool is not bounded", got, base)
	}
}

// --- Streaming memory bound ------------------------------------------------

// batchTrackingSource wraps a Source and records the largest batch it was
// asked for, verifying the engine never requests more than BatchSize items.
type batchTrackingSource struct {
	inner    *knn.Stream
	maxBatch int
}

func (s *batchTrackingSource) NextBatch(ctx context.Context, dst []*knn.TestPoint) (int, error) {
	if len(dst) > s.maxBatch {
		s.maxBatch = len(dst)
	}
	return s.inner.NextBatch(ctx, dst)
}

// Peak memory for a streaming exact run must be bounded by BatchSize·N
// distances, not Ntest·N: with Ntest=1000, N=10000 the eager seed path
// allocated ≥ 80 MB of distances; the streaming engine run below stays
// under a few MB of steady-state buffers (asserted via cumulative
// allocation, which upper-bounds the peak).
func TestEngineStreamingMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates two datasets")
	}
	const (
		nTrain    = 10000
		nTest     = 1000
		batchSize = 16
	)
	train := dataset.MNISTLike(nTrain, 1)
	test := dataset.MNISTLike(nTest, 2)
	stream, err := knn.NewStream(knn.UnweightedClass, 3, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	src := &batchTrackingSource{inner: stream}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := NewEngine[*knn.TestPoint](EngineConfig{Workers: 4, BatchSize: batchSize})
	sv, err := eng.Run(context.Background(), src, ExactClassKernel{N: nTrain})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(sv) != nTrain {
		t.Fatalf("%d values, want %d", len(sv), nTrain)
	}
	if src.maxBatch > batchSize {
		t.Fatalf("engine requested a batch of %d test points, want <= %d", src.maxBatch, batchSize)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	eager := uint64(nTest) * nTrain * 8 // bytes of the seed's full distance matrix
	if allocated > eager/2 {
		t.Fatalf("streaming run allocated %d bytes cumulatively, want well under the eager %d", allocated, eager)
	}
}
