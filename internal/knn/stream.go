package knn

import (
	"context"
	"fmt"
	"math"

	"knnshapley/internal/dataset"
	"knnshapley/internal/par"
	"knnshapley/internal/vec"
)

// scanGrain is the least scan work, in training rows × four-query groups ×
// feature dimensions, that NextBatch gives each goroutine when it splits a
// batch, whatever unit it splits in. On a 2-vCPU Xeon host, dim 64, with
// the AVX eight-query sweep, a 16-query batch split into two halves of the
// training rows took 1.42× the serial time at 2^16, 1.09× at 2^17, 0.79×
// at 2^18 and 0.61× at 2^19 (medians of 6 runs), so the grain is 2^18.
const scanGrain = 1 << 18

// Stream is a batched producer of TestPoints: instead of eagerly
// materializing the full Ntest×N distance matrix the way BuildTestPoints
// does, it computes distances one batch of test rows at a time, reusing a
// single batch-sized tile of backing buffers. Peak memory is therefore
// bounded by BatchSize·N distances regardless of the test-set size.
//
// For the Euclidean metrics the tile is filled by the norm-precompute GEMV
// kernel vec.SqL2NormDotBatch: training-row squared norms are computed once
// (or taken from a shared Precomp, which may also hold a float32 copy of
// the training matrix), so each batch is a single dot sweep over the
// training matrix. Distances are bit-identical to BuildTestPoint's for
// every batch size, query grouping and worker count (see SetWorkers).
// Other metrics fall back to row-at-a-time distance scans.
//
// The TestPoints returned by NextBatch alias the Stream's internal buffers
// and are only valid until the next NextBatch call. Callers that need them
// to persist (e.g. BuildTestPoints) must copy.
type Stream struct {
	kind   Kind
	k      int
	weight WeightFunc
	metric vec.Metric
	train  *dataset.Dataset
	test   *dataset.Dataset
	pre    *Precomp

	next    int // next test row to produce
	workers int // goroutines NextBatch may scan on; <= 1 means serial

	// Flat fast-path state: non-nil when the respective dataset is
	// contiguous and the metric is Euclidean.
	trainFlat []float64
	testFlat  []float64

	// Reused batch tile: distBuf is batch·N distances, correctBuf batch·N
	// correctness indicators, tps the TestPoint headers themselves. qBuf
	// gathers non-contiguous query rows; q32 holds the float32 conversion
	// of the query batch in Float32 mode.
	distBuf    []float64
	correctBuf []bool
	tps        []TestPoint
	qBuf       []float64
	q32        []float32
}

// NewStream validates the datasets exactly like BuildTestPoints and returns
// a Stream positioned at the first test row. The scan precomputation is
// built internally at Float64 precision; use NewStreamPre to share one
// Precomp (or select Float32) across streams.
func NewStream(kind Kind, k int, weight WeightFunc, metric vec.Metric,
	train, test *dataset.Dataset) (*Stream, error) {
	return NewStreamPre(kind, k, weight, metric, train, test, nil)
}

// NewStreamPre is NewStream with a caller-supplied scan precomputation,
// letting a session build norms (and the float32 training copy) once and
// reuse them across every stream. pre must have been built by NewPrecomp
// from the same train/metric; nil means build a Float64 one here.
func NewStreamPre(kind Kind, k int, weight WeightFunc, metric vec.Metric,
	train, test *dataset.Dataset, pre *Precomp) (*Stream, error) {

	if k <= 0 {
		return nil, fmt.Errorf("knn: K = %d, want positive", k)
	}
	if kind.IsWeighted() && weight == nil {
		return nil, fmt.Errorf("knn: weighted utility requires a WeightFunc")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("knn: train: %w", err)
	}
	if err := test.Validate(); err != nil {
		return nil, fmt.Errorf("knn: test: %w", err)
	}
	if kind.IsRegression() != train.IsRegression() || kind.IsRegression() != test.IsRegression() {
		return nil, fmt.Errorf("knn: utility kind %v incompatible with dataset responses", kind)
	}
	if train.Dim() != test.Dim() {
		return nil, fmt.Errorf("knn: train dim %d != test dim %d", train.Dim(), test.Dim())
	}
	s := &Stream{kind: kind, k: k, weight: weight, metric: metric, train: train, test: test, pre: pre}
	if metric == vec.L2 || metric == vec.SquaredL2 {
		if tf, ok := train.Flat(); ok {
			s.trainFlat = tf
		}
		if qf, ok := test.Flat(); ok {
			s.testFlat = qf
		}
		if s.pre == nil {
			s.pre = NewPrecomp(train, metric, Float64)
		}
	}
	return s, nil
}

// SetWorkers lets NextBatch split a large batch's distance scan over up to
// n goroutines, the caller included. A new Stream is serial. The scan runs
// while the engine that drives the stream waits for the batch, so a caller
// passing its engine's worker count keeps at most that many goroutines
// computing at once.
func (s *Stream) SetWorkers(n int) { s.workers = n }

// NumTest returns the total number of test points the stream will produce.
func (s *Stream) NumTest() int { return s.test.N() }

// NumTrain returns the training-set size (the length of each Dist vector).
func (s *Stream) NumTrain() int { return s.train.N() }

// Reset rewinds the stream to the first test row.
func (s *Stream) Reset() { s.next = 0 }

// NextBatch fills dst with up to len(dst) TestPoints for the next test rows
// and returns how many were produced; 0 means the stream is exhausted. The
// returned TestPoints reuse the Stream's buffers and are invalidated by the
// following NextBatch call. A canceled ctx aborts before the batch's
// distance tile is computed and returns ctx.Err().
//
// Above scanGrain of work per goroutine the tile is split and scanned on up
// to SetWorkers goroutines (the caller included), joined before NextBatch
// returns. The part count is taken over four-query groups, so a batch
// splits exactly when, and as many ways as, its four-query groups allow.
// The float64 GEMV path splits the training rows, every part sweeping all
// the batch's queries; the other paths split runs of whole four-query
// groups, the grouping the float32 kernels use. A distance depends only on
// its query and row, so the tile is bit-identical for every worker count.
func (s *Stream) NextBatch(ctx context.Context, dst []*TestPoint) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	b := len(dst)
	if remaining := s.test.N() - s.next; b > remaining {
		b = remaining
	}
	if b <= 0 {
		return 0, nil
	}
	n := s.train.N()
	if cap(s.distBuf) < b*n {
		s.distBuf = make([]float64, b*n)
	}
	s.distBuf = s.distBuf[:b*n]
	if !s.kind.IsRegression() {
		if cap(s.correctBuf) < b*n {
			s.correctBuf = make([]bool, b*n)
		}
		s.correctBuf = s.correctBuf[:b*n]
	}
	if cap(s.tps) < b {
		s.tps = make([]TestPoint, b)
	}
	s.tps = s.tps[:b]

	dim := s.train.Dim()
	var q []float64
	gemv := s.pre != nil && s.trainFlat != nil && n > 0 && dim > 0
	if gemv {
		q = s.queryBlock(b, dim)
		if s.pre.precision == Float32 {
			if cap(s.q32) < b*dim {
				s.q32 = make([]float32, b*dim)
			}
			s.q32 = vec.ToFloat32(s.q32[:0], q)
		}
	}
	groups := (b + 3) / 4
	parts := min(par.Parts(groups*n*dim, scanGrain, s.workers), groups)
	if gemv && s.pre.precision == Float64 {
		par.For(n, parts, func(lo, hi int) { s.scan(q, gemv, 0, b, lo, hi) })
	} else {
		par.For(groups, parts, func(lo, hi int) { s.scan(q, gemv, 4*lo, min(4*hi, b), 0, n) })
	}

	for i := 0; i < b; i++ {
		j := s.next + i
		tp := &s.tps[i]
		*tp = TestPoint{Kind: s.kind, K: s.k, Weight: s.weight, Dist: s.distBuf[i*n : (i+1)*n]}
		if s.kind.IsRegression() {
			tp.Y = s.train.Targets
			tp.YTest = s.test.Targets[j]
		} else {
			tp.Correct = s.correctBuf[i*n : (i+1)*n]
		}
		dst[i] = tp
	}
	s.next += b
	return b, nil
}

// scan fills the distances from batch queries [lo, hi) to training rows
// [rlo, rhi) and, for classification, their correctness flags. q is the
// batch's query block on the GEMV path; only the float64 GEMV path is given
// less than all the rows. Calls on disjoint ranges write disjoint parts of
// the tile, so they may run concurrently.
func (s *Stream) scan(q []float64, gemv bool, lo, hi, rlo, rhi int) {
	n, dim := s.train.N(), s.train.Dim()
	switch {
	case gemv && s.pre.precision == Float32:
		// GEMV tile of squared distances via the norm-precompute identity.
		vec.SqL2NormDotBatch32(s.distBuf[lo*n:hi*n], s.pre.flat32, n, dim, s.pre.norms32, s.q32[lo*dim:hi*dim], hi-lo)
	case gemv:
		vec.SqL2NormDotRows(s.distBuf[lo*n:hi*n], s.trainFlat, n, dim, s.pre.norms, q[lo*dim:hi*dim], hi-lo, rlo, rhi)
	case s.metric == vec.L2 || s.metric == vec.SquaredL2:
		// Non-contiguous training rows: same normdot formula row by row, so
		// the distances still match the tile path bit for bit.
		var norms []float64
		if s.pre != nil {
			norms = s.pre.norms
		}
		for i := lo; i < hi; i++ {
			sqL2ScanRows(s.distBuf[i*n:(i+1)*n], s.train.X, norms, s.test.X[s.next+i])
		}
	default:
		for i := lo; i < hi; i++ {
			vec.Distances(s.metric, s.train.X, s.test.X[s.next+i], s.distBuf[i*n:(i+1)*n])
		}
	}
	for i := lo; i < hi; i++ {
		if s.metric == vec.L2 {
			// The Euclidean paths produce squared distances; L2 takes the root.
			dist := s.distBuf[i*n+rlo : i*n+rhi]
			for j, v := range dist {
				dist[j] = math.Sqrt(v)
			}
		}
		if !s.kind.IsRegression() {
			correct := s.correctBuf[i*n+rlo : i*n+rhi]
			label := s.test.Labels[s.next+i]
			for t, y := range s.train.Labels[rlo:rhi] {
				correct[t] = y == label
			}
		}
	}
}

// queryBlock returns the next b test rows as one contiguous b×dim block:
// a plain subslice when the test set is flat, otherwise a gather into a
// reused buffer.
func (s *Stream) queryBlock(b, dim int) []float64 {
	if s.testFlat != nil {
		return s.testFlat[s.next*dim : (s.next+b)*dim]
	}
	if cap(s.qBuf) < b*dim {
		s.qBuf = make([]float64, b*dim)
	}
	s.qBuf = s.qBuf[:b*dim]
	for i := 0; i < b; i++ {
		copy(s.qBuf[i*dim:(i+1)*dim], s.test.X[s.next+i])
	}
	return s.qBuf
}

// sqL2ScanRows fills out[i] with the squared Euclidean distance from q to
// rows[i] using the same norm-precompute expression as the batched kernel
// (norms[i] may be nil to compute row norms inline), so row-at-a-time and
// tiled scans agree bit for bit.
func sqL2ScanRows(out []float64, rows [][]float64, norms []float64, q []float64) {
	qn := vec.SqNorm(q)
	if norms != nil {
		for i, row := range rows {
			out[i] = vec.SqL2NormDot(row, q, norms[i], qn)
		}
		return
	}
	for i, row := range rows {
		out[i] = vec.SqL2NormDot(row, q, vec.SqNorm(row), qn)
	}
}
