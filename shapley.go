package knnshapley

import (
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

// config is a session's settings, filled in by the With* options.
type config struct {
	K         int        // neighbors (WithK, required >= 1)
	Metric    Metric     // neighbor ranking (WithMetric, default L2)
	Weight    WeightFunc // non-nil selects the weighted utilities (WithWeight)
	Workers   int        // concurrent goroutines (WithWorkers, 0 = all cores)
	BatchSize int        // test points in flight (WithBatchSize, 0 = 64)
	Precision Precision  // distance-scan width (WithPrecision, default Float64)
	Indexes   IndexStore // persistent ANN index store (WithIndexStore, nil = none)
}

func (c config) kind(train *Dataset) knn.Kind {
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

func (c config) testPoints(train, test *Dataset, pre *knn.Precomp) ([]*knn.TestPoint, error) {
	return knn.BuildTestPointsPre(c.kind(train), c.K, c.Weight, c.Metric, train, test, pre)
}

// stream returns a batched test-point producer: distances are computed one
// engine batch at a time (with the norm-precompute GEMV kernel on
// contiguous datasets, reusing pre when non-nil) instead of eagerly
// materializing the Ntest×N matrix. A large batch's scan is split over the
// engine's worker count.
func (c config) stream(train, test *Dataset, pre *knn.Precomp) (*knn.Stream, error) {
	s, err := knn.NewStreamPre(c.kind(train), c.K, c.Weight, c.Metric, train, test, pre)
	if err != nil {
		return nil, err
	}
	s.SetWorkers(c.engine().NumWorkers())
	return s, nil
}

func (c config) engine() core.EngineConfig {
	return core.EngineConfig{Workers: c.Workers, BatchSize: c.BatchSize}
}

// EstimateWeightedCost approximates the number of utility evaluations
// Valuer.Exact performs per test point for a weighted utility with n
// training points.
func EstimateWeightedCost(n, k int) float64 { return core.EstimateWeightedCost(n, k) }

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
