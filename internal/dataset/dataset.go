// Package dataset defines the in-memory dataset representation shared by the
// whole repository, synthetic generators standing in for the paper's
// deep-feature benchmarks, label-noise injection, and CSV/binary codecs.
//
// The valuation algorithms only ever observe pairwise distances, labels and
// the relative contrast of a dataset, so the synthetic generators are
// calibrated on those properties rather than on image semantics (see
// MixtureConfig in synthetic.go).
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Dataset is a supervised dataset. Exactly one of Labels (classification)
// and Targets (regression) is non-empty.
//
// Feature storage is row-major: the canonical representation is one flat
// []float64 holding all rows contiguously, with X carrying per-row views
// into it. Datasets built by the package constructors (FromFlat, the
// synthetic generators, the codecs) are always contiguous; datasets
// assembled from an existing [][]float64 can be packed with Flatten. The
// contiguous form is what the norm-precompute distance kernels
// (vec.SqL2NormDotBatch) and the streaming test-point producer operate on.
type Dataset struct {
	// Name identifies the dataset in experiment output.
	Name string
	// X holds one feature vector per instance; all rows share a dimension.
	// When the dataset is contiguous these are views into the flat backing.
	X [][]float64
	// Labels holds class indices in [0, Classes) for classification data.
	Labels []int
	// Classes is the number of distinct classes for classification data.
	Classes int
	// Targets holds real-valued responses for regression data.
	Targets []float64

	// flat is the row-major backing buffer when the rows of X are packed
	// contiguously into it; nil otherwise (e.g. after Subset, or for
	// literal datasets that never called Flatten).
	flat []float64
}

// FromFlat builds a dataset over an existing row-major rows×dim feature
// buffer without copying: X is populated with per-row views into flat.
// Labels/Targets/Classes are left for the caller to fill in.
func FromFlat(flat []float64, rows, dim int) *Dataset {
	if len(flat) != rows*dim {
		panic(fmt.Sprintf("dataset: flat buffer has %d values, want %d×%d", len(flat), rows, dim))
	}
	d := &Dataset{flat: flat, X: make([][]float64, rows)}
	for i := range d.X {
		d.X[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return d
}

// N returns the number of instances.
func (d *Dataset) N() int { return len(d.X) }

// Rows is N under the name matching the flat row-major accessors.
func (d *Dataset) Rows() int { return d.N() }

// Row returns the feature vector of instance i.
func (d *Dataset) Row(i int) []float64 { return d.X[i] }

// Dim returns the feature dimension, or 0 for an empty dataset.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Flat returns the contiguous row-major feature buffer and true when every
// row of X is a view into it in order, or (nil, false) otherwise. Callers on
// the fast path check Flat once and fall back to row-at-a-time access.
func (d *Dataset) Flat() ([]float64, bool) {
	if d.flat == nil || !d.contiguous() {
		return nil, false
	}
	return d.flat, true
}

// contiguous verifies that X still aliases flat row-by-row (mutating X after
// Flatten can break the invariant; the check is O(N) pointer comparisons).
func (d *Dataset) contiguous() bool {
	dim := d.Dim()
	if len(d.flat) != len(d.X)*dim {
		return false
	}
	for i, row := range d.X {
		if len(row) != dim || (dim > 0 && &row[0] != &d.flat[i*dim]) {
			return false
		}
	}
	return true
}

// Flatten packs the feature rows into one contiguous row-major buffer and
// repoints X at it. It is a no-op when the dataset is already contiguous and
// panics on ragged rows (run Validate first for a graceful error).
func (d *Dataset) Flatten() {
	if d.flat != nil && d.contiguous() {
		return
	}
	dim := d.Dim()
	flat := make([]float64, len(d.X)*dim)
	for i, row := range d.X {
		if len(row) != dim {
			panic(fmt.Sprintf("dataset: row %d has dim %d, want %d", i, len(row), dim))
		}
		copy(flat[i*dim:(i+1)*dim], row)
	}
	d.flat = flat
	for i := range d.X {
		d.X[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
}

// IsRegression reports whether the dataset carries regression targets.
func (d *Dataset) IsRegression() bool { return len(d.Targets) > 0 }

// Validate checks structural invariants: consistent row dimensions, exactly
// one kind of response, responses matching X in length, and labels in range.
func (d *Dataset) Validate() error {
	if len(d.Labels) > 0 && len(d.Targets) > 0 {
		return errors.New("dataset: both Labels and Targets set")
	}
	if len(d.Labels) == 0 && len(d.Targets) == 0 && len(d.X) > 0 {
		return errors.New("dataset: no responses")
	}
	if len(d.Labels) > 0 && len(d.Labels) != len(d.X) {
		return fmt.Errorf("dataset: %d labels for %d rows", len(d.Labels), len(d.X))
	}
	if len(d.Targets) > 0 && len(d.Targets) != len(d.X) {
		return fmt.Errorf("dataset: %d targets for %d rows", len(d.Targets), len(d.X))
	}
	dim := d.Dim()
	for i, row := range d.X {
		if len(row) != dim {
			return fmt.Errorf("dataset: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	for i, y := range d.Labels {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("dataset: label %d of row %d outside [0,%d)", y, i, d.Classes)
		}
	}
	return nil
}

// ErrNonFinite is wrapped by CheckFinite's error for a NaN or ±Inf feature.
var ErrNonFinite = errors.New("dataset: non-finite feature")

// CheckFinite returns an error wrapping ErrNonFinite, naming the first NaN
// or ±Inf feature, or nil when every feature is finite. A NaN distance
// never compares, so the top-K heap and the full sort would rank it
// differently. It is kept out of Validate, which the streams run over the
// training set on every call, and runs once where data enters instead.
func (d *Dataset) CheckFinite() error {
	// The exponent bits are all ones exactly for NaN and ±Inf. One mask
	// test per feature took 10 ms against 17 ms for math.IsNaN ||
	// math.IsInf at N=1e5, dim 64 on a 2-vCPU Xeon host.
	const exp = 0x7ff << 52
	for i, row := range d.X {
		for j, v := range row {
			if math.Float64bits(v)&exp == exp {
				return fmt.Errorf("%w: row %d feature %d is %v", ErrNonFinite, i, j, v)
			}
		}
	}
	return nil
}

// Subset returns a new dataset containing the rows selected by idx, sharing
// feature storage with the receiver.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Name: d.Name, Classes: d.Classes}
	out.X = make([][]float64, len(idx))
	for i, j := range idx {
		out.X[i] = d.X[j]
	}
	if len(d.Labels) > 0 {
		out.Labels = make([]int, len(idx))
		for i, j := range idx {
			out.Labels[i] = d.Labels[j]
		}
	}
	if len(d.Targets) > 0 {
		out.Targets = make([]float64, len(idx))
		for i, j := range idx {
			out.Targets[i] = d.Targets[j]
		}
	}
	return out
}

// Split partitions the dataset into a training set with ceil(trainFrac*N)
// rows and a test set with the rest, after a seeded shuffle. trainFrac must
// lie in (0, 1).
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: trainFrac %v outside (0,1)", trainFrac))
	}
	perm := rng.Perm(d.N())
	nTrain := (d.N()*int(trainFrac*1000) + 999) / 1000
	if nTrain >= d.N() {
		nTrain = d.N() - 1
	}
	if nTrain < 1 {
		nTrain = 1
	}
	return d.Subset(perm[:nTrain]), d.Subset(perm[nTrain:])
}

// Bootstrap returns n rows sampled with replacement (the resampling used to
// synthesize larger training sets for the Figure 6 runtime sweep).
func (d *Dataset) Bootstrap(n int, rng *rand.Rand) *Dataset {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.IntN(d.N())
	}
	out := d.Subset(idx)
	out.Name = d.Name + "-bootstrap"
	return out
}

// FlipLabels relabels a fraction frac of the rows to a uniformly random
// *different* class and returns the indices that were corrupted. It is the
// label-noise injector used by the mislabel-detection example.
func (d *Dataset) FlipLabels(frac float64, rng *rand.Rand) []int {
	if len(d.Labels) == 0 {
		panic("dataset: FlipLabels on regression data")
	}
	if d.Classes < 2 {
		panic("dataset: FlipLabels needs at least two classes")
	}
	n := int(frac * float64(d.N()))
	perm := rng.Perm(d.N())
	flipped := make([]int, 0, n)
	for _, i := range perm[:n] {
		offset := 1 + rng.IntN(d.Classes-1)
		d.Labels[i] = (d.Labels[i] + offset) % d.Classes
		flipped = append(flipped, i)
	}
	return flipped
}

// Clone returns a deep copy of the dataset. The copy is always contiguous
// (row-major flat backing), regardless of the receiver's layout.
func (d *Dataset) Clone() *Dataset {
	dim := d.Dim()
	flat := make([]float64, len(d.X)*dim)
	for i, row := range d.X {
		copy(flat[i*dim:(i+1)*dim], row)
	}
	out := FromFlat(flat, len(d.X), dim)
	out.Name = d.Name
	out.Classes = d.Classes
	out.Labels = append([]int(nil), d.Labels...)
	out.Targets = append([]float64(nil), d.Targets...)
	return out
}
