package knnshapley

import (
	"context"
	"fmt"
	"io"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// Dataset is the in-memory dataset representation: feature rows plus either
// integer class labels or real regression targets. (The concrete type lives
// in an internal package; construct values with NewClassificationDataset,
// NewRegressionDataset or ReadCSV.)
type Dataset = dataset.Dataset

// Metric identifies the distance function used to rank neighbors.
type Metric = vec.Metric

// Exported distance metrics.
const (
	L2     = vec.L2
	L1     = vec.L1
	Cosine = vec.Cosine
)

// ParseMetric maps a wire metric name onto its Metric; the empty string
// selects the L2 default.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "", "l2":
		return L2, nil
	case "l1":
		return L1, nil
	case "cosine":
		return Cosine, nil
	default:
		return L2, fmt.Errorf("unknown metric %q (want l2, l1, cosine)", name)
	}
}

// Precision selects the storage/compute width of the distance scan: Float64
// (the default, bit-exact across platforms and batch sizes) or Float32
// (half the scan bandwidth and twice the SIMD width, with distances — and
// hence values of the distance-weighted utilities — accurate to
// single-precision rounding; neighbor orderings and unweighted values are
// unchanged except for near-tie rank flips at that same scale).
type Precision = knn.Precision

// Exported distance-scan precisions.
const (
	Float64 = knn.Float64
	Float32 = knn.Float32
)

// ParsePrecision maps a wire precision name ("float64", "float32", or ""
// for the Float64 default) onto its Precision.
func ParsePrecision(name string) (Precision, error) { return knn.ParsePrecision(name) }

// WeightFunc maps a neighbor distance to its vote weight in weighted KNN.
type WeightFunc = knn.WeightFunc

// InverseDistance returns the classic 1/(d+eps) neighbor weight.
func InverseDistance(eps float64) WeightFunc { return knn.InverseDistance(eps) }

// ExpDecay returns exp(-d/scale) neighbor weights.
func ExpDecay(scale float64) WeightFunc { return knn.ExpDecay(scale) }

// NewClassificationDataset builds a classification dataset from feature rows
// and class labels (0-based; the class count is max(label)+1). The features
// are copied into the dataset's contiguous row-major storage, so later
// mutations of x do not affect the dataset (and vice versa).
func NewClassificationDataset(x [][]float64, labels []int) (*Dataset, error) {
	classes := 0
	for _, y := range labels {
		if y+1 > classes {
			classes = y + 1
		}
	}
	d := &Dataset{X: append([][]float64(nil), x...), Labels: labels, Classes: classes}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.Flatten()
	return d, nil
}

// NewRegressionDataset builds a regression dataset from feature rows and
// real-valued targets. The features are copied into the dataset's
// contiguous row-major storage, so later mutations of x do not affect the
// dataset (and vice versa).
func NewRegressionDataset(x [][]float64, targets []float64) (*Dataset, error) {
	d := &Dataset{X: append([][]float64(nil), x...), Targets: targets}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.Flatten()
	return d, nil
}

// ReadCSV parses a dataset with feature columns first and the response in
// the final column.
func ReadCSV(r io.Reader, regression bool) (*Dataset, error) {
	return dataset.ReadCSV(r, regression)
}

// WriteCSV writes a dataset in the ReadCSV layout.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// ReadBinary parses a dataset in the compact binary format (magic "KNNS",
// version, shape, contiguous little-endian float64 feature block, then
// responses). It is the format the svserver dataset registry persists and
// accepts on POST /datasets with Content-Type application/octet-stream —
// roughly 3–4× smaller than the JSON encoding and decoded without float
// parsing.
func ReadBinary(r io.Reader) (*Dataset, error) { return dataset.ReadBinary(r) }

// WriteBinary writes a dataset in the ReadBinary format. The encoding is
// canonical: equal datasets (by content fingerprint) encode to identical
// bytes.
func WriteBinary(w io.Writer, d *Dataset) error { return dataset.WriteBinary(w, d) }

// Config selects the KNN utility whose Shapley values are computed.
type Config struct {
	// K is the number of neighbors (required, >= 1).
	K int
	// Metric defaults to L2 — the metric of the paper's experiments and of
	// the LSH approximation.
	Metric Metric
	// Weight, when non-nil, selects the weighted KNN utilities (Eqs. 26/27)
	// instead of the unweighted ones (Eqs. 5/25).
	Weight WeightFunc
	// Workers bounds the goroutines computing at once (0 = all cores): the
	// per-test-point kernels, and a large batch's distance scan and
	// ordered reduce.
	Workers int
	// BatchSize bounds how many test points are materialized at once: the
	// engine streams test points in batches, so peak memory is
	// BatchSize·N distances rather than Ntest·N (0 = 64).
	BatchSize int
	// Precision selects the distance-scan compute mode: Float64 (default,
	// bit-exact) or Float32 (the training matrix is stored and scanned in
	// single precision — roughly half the memory bandwidth and twice the
	// SIMD width, with distances accurate to single-precision rounding; see
	// the Performance section of the package documentation).
	Precision Precision
	// Indexes, when non-nil, is the persistent index store the session
	// reloads ANN indexes from (and persists fresh builds into) instead of
	// rebuilding on every session-cache miss. See WithIndexStore.
	Indexes IndexStore
}

func (c Config) kind(train *Dataset) knn.Kind {
	switch {
	case train.IsRegression() && c.Weight != nil:
		return knn.WeightedRegress
	case train.IsRegression():
		return knn.UnweightedRegress
	case c.Weight != nil:
		return knn.WeightedClass
	default:
		return knn.UnweightedClass
	}
}

func (c Config) testPoints(train, test *Dataset, pre *knn.Precomp) ([]*knn.TestPoint, error) {
	if c.K <= 0 {
		return nil, fmt.Errorf("knnshapley: Config.K = %d, want >= 1", c.K)
	}
	return knn.BuildTestPointsPre(c.kind(train), c.K, c.Weight, c.Metric, train, test, pre)
}

// stream validates the configuration and returns a batched test-point
// producer: distances are computed one engine batch at a time (with the
// norm-precompute GEMV kernel on contiguous datasets, reusing pre when
// non-nil) instead of eagerly materializing the Ntest×N matrix. A large
// batch's scan is split over the engine's worker count.
func (c Config) stream(train, test *Dataset, pre *knn.Precomp) (*knn.Stream, error) {
	if c.K <= 0 {
		return nil, fmt.Errorf("knnshapley: Config.K = %d, want >= 1", c.K)
	}
	s, err := knn.NewStreamPre(c.kind(train), c.K, c.Weight, c.Metric, train, test, pre)
	if err != nil {
		return nil, err
	}
	s.SetWorkers(c.engine().NumWorkers())
	return s, nil
}

func (c Config) engine() core.EngineConfig {
	return core.EngineConfig{Workers: c.Workers, BatchSize: c.BatchSize}
}

// Exact computes the exact Shapley value of every training point with
// respect to the KNN utility averaged over the test set (Theorems 1, 6
// and 7).
//
// Deprecated: construct a session with New and call Valuer.Exact, which
// reuses the validated training set across calls and honors a
// context.Context. This wrapper builds a one-shot Valuer and produces
// bit-identical values; the one behavioral change shared by all the
// deprecated wrappers is that an empty or nil test set now returns a
// descriptive error instead of nil values.
func Exact(train, test *Dataset, cfg Config) ([]float64, error) {
	v, err := New(train, withConfig(cfg))
	if err != nil {
		return nil, err
	}
	rep, err := v.Exact(context.Background(), test)
	if err != nil {
		return nil, err
	}
	return rep.Values, nil
}

// EstimateWeightedCost approximates the number of utility evaluations Exact
// performs per test point for a weighted utility with n training points.
func EstimateWeightedCost(n, k int) float64 { return core.EstimateWeightedCost(n, k) }

// Truncated computes the (eps, 0)-approximation of Theorem 2 for unweighted
// KNN classification: only the K* = max{K, ⌈1/eps⌉} nearest neighbors of
// each test point receive (exact) values, everyone else zero. Guarantees
// max_i |ŝ_i − s_i| ≤ eps and preserves the value ranking of the K* nearest.
//
// Deprecated: use New and Valuer.Truncated.
func Truncated(train, test *Dataset, cfg Config, eps float64) ([]float64, error) {
	if train != nil && (train.IsRegression() || cfg.Weight != nil) {
		return nil, fmt.Errorf("knnshapley: Truncated applies to unweighted classification")
	}
	v, err := New(train, withConfig(cfg))
	if err != nil {
		return nil, err
	}
	rep, err := v.Truncated(context.Background(), test, eps)
	if err != nil {
		return nil, err
	}
	return rep.Values, nil
}

// Monetize converts relative Shapley values into currency given an affine
// revenue model R(S) = a·ν(S) + b (Section 7): each point receives
// a·sv_i + b/N so the payments sum to a·ν(I) + b (up to the ν(∅) share).
func Monetize(sv []float64, a, b float64) []float64 {
	out := make([]float64, len(sv))
	if len(sv) == 0 {
		return out
	}
	perPoint := b / float64(len(sv))
	for i, v := range sv {
		out[i] = a*v + perPoint
	}
	return out
}
