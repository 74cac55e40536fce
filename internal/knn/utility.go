package knn

import (
	"fmt"
	"math"

	"knnshapley/internal/kheap"
	"knnshapley/internal/vec"
)

// Kind selects which of the paper's KNN utility functions is evaluated.
type Kind int

const (
	// UnweightedClass is Eq. (5): the likelihood the unweighted KNN
	// classifier assigns to the correct test label.
	UnweightedClass Kind = iota
	// WeightedClass is Eq. (26): the weighted vote mass on the correct label.
	WeightedClass
	// UnweightedRegress is Eq. (25): the negative squared error of the
	// unweighted KNN regression estimate.
	UnweightedRegress
	// WeightedRegress is Eq. (27): the negative squared error of the
	// weighted KNN regression estimate.
	WeightedRegress
)

// String returns a short name for the utility kind.
func (k Kind) String() string {
	switch k {
	case UnweightedClass:
		return "unweighted-class"
	case WeightedClass:
		return "weighted-class"
	case UnweightedRegress:
		return "unweighted-regress"
	case WeightedRegress:
		return "weighted-regress"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsRegression reports whether the kind is one of the regression utilities.
func (k Kind) IsRegression() bool { return k == UnweightedRegress || k == WeightedRegress }

// IsWeighted reports whether the kind uses a distance weight function.
func (k Kind) IsWeighted() bool { return k == WeightedClass || k == WeightedRegress }

// TestPoint captures everything the KNN utilities need about one test query:
// the distance from every training point to the query, per-point correctness
// (classification) or targets (regression), and the utility configuration.
// It is the unit over which Shapley values are computed; multi-test-point
// values (Eq. 8) are averages over TestPoints by the additivity property.
type TestPoint struct {
	Kind   Kind
	K      int
	Weight WeightFunc // required iff Kind.IsWeighted()

	// Dist[i] is the distance from training point i to the query.
	Dist []float64
	// Correct[i] reports whether training label i equals the test label
	// (classification kinds only).
	Correct []bool
	// Y[i] is the target of training point i (regression kinds only).
	Y []float64
	// YTest is the test target (regression kinds only).
	YTest float64
}

// BuildTestPoint computes the TestPoint for one test query against the whole
// training set.
func BuildTestPoint(kind Kind, k int, weight WeightFunc, metric vec.Metric,
	trainX [][]float64, trainLabels []int, trainTargets []float64,
	q []float64, qLabel int, qTarget float64) *TestPoint {

	if k <= 0 {
		panic(fmt.Sprintf("knn: K = %d, want positive", k))
	}
	if kind.IsWeighted() && weight == nil {
		panic("knn: weighted utility requires a WeightFunc")
	}
	tp := &TestPoint{Kind: kind, K: k, Weight: weight, YTest: qTarget}
	switch metric {
	case vec.L2, vec.SquaredL2:
		// Same norm-precompute expression as the streamed GEMV tile, so the
		// singular and batched builders agree bit for bit.
		tp.Dist = make([]float64, len(trainX))
		sqL2ScanRows(tp.Dist, trainX, nil, q)
		if metric == vec.L2 {
			for i, v := range tp.Dist {
				tp.Dist[i] = math.Sqrt(v)
			}
		}
	default:
		tp.Dist = vec.Distances(metric, trainX, q, nil)
	}
	if kind.IsRegression() {
		tp.Y = trainTargets
	} else {
		tp.Correct = make([]bool, len(trainX))
		for i, y := range trainLabels {
			tp.Correct[i] = y == qLabel
		}
	}
	return tp
}

// N returns the number of training points.
func (tp *TestPoint) N() int { return len(tp.Dist) }

// Order returns training indices sorted by ascending (distance, index) — the
// α ordering of Theorem 1.
func (tp *TestPoint) Order() []int {
	return tp.OrderInto(nil)
}

// OrderInto is Order writing into buf (reallocated only when too short) so
// per-test-point hot loops can reuse one index buffer instead of allocating
// N ints per call. The ordering is identical to Order's. It hands Dist
// straight to the bucket argsort — no closure, no comparison sort.
func (tp *TestPoint) OrderInto(buf []int) []int {
	return vec.ArgsortDistInto(buf, tp.Dist)
}

// term is the additive contribution of training point i once it is among the
// K nearest neighbors: the summand of the respective utility definition.
func (tp *TestPoint) term(i int) float64 {
	switch tp.Kind {
	case UnweightedClass:
		if tp.Correct[i] {
			return 1 / float64(tp.K)
		}
		return 0
	case WeightedClass:
		if tp.Correct[i] {
			return tp.Weight(tp.Dist[i])
		}
		return 0
	case UnweightedRegress:
		return tp.Y[i] / float64(tp.K)
	case WeightedRegress:
		return tp.Weight(tp.Dist[i]) * tp.Y[i]
	default:
		panic("knn: unknown utility kind")
	}
}

// finish converts the aggregated neighbor terms into the utility value.
func (tp *TestPoint) finish(agg float64) float64 {
	if tp.Kind.IsRegression() {
		d := agg - tp.YTest
		return -d * d
	}
	return agg
}

// EmptyUtility returns ν(∅): 0 for classification, -YTest² for regression
// (Eq. 25 with an empty neighbor sum).
func (tp *TestPoint) EmptyUtility() float64 { return tp.finish(0) }

// SubsetUtility evaluates ν(S) for an arbitrary training subset S given by
// indices. Cost is O(|S| log K). This is the oracle used by brute-force
// Shapley enumeration and the baseline Monte-Carlo estimator. It allocates
// a heap per call; loops over many subsets hold one and call
// SubsetUtilityWith.
func (tp *TestPoint) SubsetUtility(subset []int) float64 {
	return tp.SubsetUtilityWith(kheap.New(tp.K), subset)
}

// SubsetUtilityWith is SubsetUtility keeping the K nearest members of S in
// h, which it resets first. h must retain tp.K items.
func (tp *TestPoint) SubsetUtilityWith(h *kheap.Heap, subset []int) float64 {
	if h.K() != tp.K {
		panic(fmt.Sprintf("knn: heap of %d for K = %d", h.K(), tp.K))
	}
	h.Reset()
	for _, i := range subset {
		h.Push(i, tp.Dist[i])
	}
	return tp.heapUtility(h)
}

// FullUtility evaluates ν(I) over all training points.
func (tp *TestPoint) FullUtility() float64 {
	h := kheap.New(tp.K)
	for i := range tp.Dist {
		h.Push(i, tp.Dist[i])
	}
	return tp.heapUtility(h)
}

// heapUtility is ν of the neighbor set h holds.
func (tp *TestPoint) heapUtility(h *kheap.Heap) float64 {
	var agg float64
	for _, it := range h.Items() {
		agg += tp.term(it.ID)
	}
	return tp.finish(agg)
}

// Incremental evaluates ν over a growing prefix of a permutation in O(log K)
// per added point — the data structure trick of Algorithm 2. The utility only
// changes when the new point enters the current K-nearest-neighbor set, which
// Add reports via changed.
type Incremental struct {
	tp   *TestPoint
	heap *kheap.Heap
	agg  float64
	util float64
}

// NewIncremental returns an evaluator positioned at the empty prefix.
func NewIncremental(tp *TestPoint) *Incremental {
	inc := &Incremental{tp: tp, heap: kheap.New(tp.K)}
	inc.util = tp.EmptyUtility()
	return inc
}

// Add inserts training point i into the prefix and returns the utility of the
// grown prefix along with whether the KNN set (and hence possibly the
// utility) changed.
func (inc *Incremental) Add(i int) (utility float64, changed bool) {
	retained, evicted, hadEvict := inc.heap.PushEvict(i, inc.tp.Dist[i])
	if !retained {
		return inc.util, false
	}
	inc.agg += inc.tp.term(i)
	if hadEvict {
		inc.agg -= inc.tp.term(evicted.ID)
	}
	inc.util = inc.tp.finish(inc.agg)
	return inc.util, true
}

// Utility returns ν of the current prefix.
func (inc *Incremental) Utility() float64 { return inc.util }

// Reset returns the evaluator to the empty prefix.
func (inc *Incremental) Reset() {
	inc.heap.Reset()
	inc.agg = 0
	inc.util = inc.tp.EmptyUtility()
}
