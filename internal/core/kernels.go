package core

import (
	"context"
	"fmt"

	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
)

// The built-in TestPoint kernels. Each one wraps a single-test-point
// algorithm from this package in the Kernel interface so the Engine can
// schedule it; adding a new valuation backend means adding a kernel here,
// not a new fan-out.

// ExactClassKernel is the Theorem 1 / Algorithm 1 exact recursion for the
// unweighted KNN classification utility (Eq. 5).
type ExactClassKernel struct {
	// N is the training-set size every test point must agree on.
	N int
}

// OutLen implements Kernel.
func (k ExactClassKernel) OutLen() int { return k.N }

// Compute implements Kernel.
func (k ExactClassKernel) Compute(_ context.Context, _ int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := checkTrainSize(tp, k.N); err != nil {
		return err
	}
	exactClassSVInto(tp, s, dst)
	return nil
}

// ExactRegressKernel is the Theorem 6 exact recursion for the unweighted
// KNN regression utility (Eq. 25).
type ExactRegressKernel struct {
	N int
}

// OutLen implements Kernel.
func (k ExactRegressKernel) OutLen() int { return k.N }

// Compute implements Kernel.
func (k ExactRegressKernel) Compute(_ context.Context, _ int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := checkTrainSize(tp, k.N); err != nil {
		return err
	}
	exactRegressSVInto(tp, s, dst)
	return nil
}

// TruncatedClassKernel is the (eps, 0)-approximation of Theorem 2: exact
// values for the K* nearest neighbors, zero beyond.
type TruncatedClassKernel struct {
	N   int
	Eps float64
}

// OutLen implements Kernel.
func (k TruncatedClassKernel) OutLen() int { return k.N }

// Compute implements Kernel.
func (k TruncatedClassKernel) Compute(_ context.Context, _ int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := checkTrainSize(tp, k.N); err != nil {
		return err
	}
	truncatedClassSVInto(tp, k.Eps, s, dst)
	return nil
}

// WeightedKernel is the Theorem 7 counting algorithm for the weighted KNN
// utilities (Eqs. 26/27). Cost grows like N^K; budget with
// EstimateWeightedCost before dispatching large problems.
type WeightedKernel struct {
	N int
}

// OutLen implements Kernel.
func (k WeightedKernel) OutLen() int { return k.N }

// Compute implements Kernel.
func (k WeightedKernel) Compute(ctx context.Context, _ int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkTrainSize(tp, k.N); err != nil {
		return err
	}
	if !tp.Kind.IsWeighted() {
		panic(fmt.Sprintf("core: ExactWeightedSV needs a weighted utility, got %v", tp.Kind))
	}
	countingSVInto(tp, dataOnlyWeights(tp.N()), s, dst)
	return nil
}

// MultiSellerKernel is the Theorem 8 seller-level game: OutLen is the
// seller count m, not the training-set size.
type MultiSellerKernel struct {
	Owners []int
	M      int
}

// OutLen implements Kernel.
func (k MultiSellerKernel) OutLen() int { return k.M }

// Compute implements Kernel.
func (k MultiSellerKernel) Compute(ctx context.Context, _ int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	one, err := multiSellerSV(tp, k.Owners, k.M, dataOnlyGroupWeights, s)
	if err != nil {
		return err
	}
	copy(dst, one)
	return nil
}

// CompositeKernel is the composite game of Theorems 9–12 valuing the
// analyst alongside the sellers: dst holds the m seller shares followed by
// the analyst share in dst[m].
type CompositeKernel struct {
	// Owners is nil for the per-point composite game; otherwise owners[i]
	// names the seller of training point i and M sellers are valued.
	Owners []int
	M      int
}

// OutLen implements Kernel.
func (k CompositeKernel) OutLen() int { return k.M + 1 }

// Compute implements Kernel.
func (k CompositeKernel) Compute(ctx context.Context, _ int, tp *knn.TestPoint, s *Scratch, dst []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var res CompositeResult
	var err error
	switch {
	case k.Owners != nil:
		res, err = CompositeMultiSellerSV(tp, k.Owners, k.M)
		if err != nil {
			return err
		}
	case tp.Kind == knn.UnweightedClass:
		res = CompositeClassSV(tp)
	case tp.Kind == knn.UnweightedRegress:
		res = CompositeRegressSV(tp)
	default:
		res = CompositeWeightedSV(tp)
	}
	copy(dst, res.Sellers)
	dst[k.M] = res.Analyst
	return nil
}

// labeledQuery is one classification query streamed through the Engine by
// the ANN-backed valuers. ids holds its K* retrieved neighbors when the
// source retrieved them (lshSource); the k-d kernel retrieves its own.
type labeledQuery struct {
	q     []float64
	label int
	ids   []int
}

// querySource streams a classification test set as labeledQuery items.
type querySource struct {
	test *dataset.Dataset
	pos  int
}

// NextBatch implements Source.
func (s *querySource) NextBatch(ctx context.Context, dst []labeledQuery) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := s.test.N() - s.pos
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		j := s.pos + i
		dst[i] = labeledQuery{q: s.test.X[j], label: s.test.Labels[j]}
	}
	s.pos += n
	return n, nil
}

// queryKernel adapts a per-query valuation closure (the LSH and k-d tree
// paths) to the Kernel interface.
type queryKernel struct {
	n     int
	value func(item labeledQuery, s *Scratch, dst []float64)
}

// OutLen implements Kernel.
func (k queryKernel) OutLen() int { return k.n }

// Compute implements Kernel.
func (k queryKernel) Compute(_ context.Context, _ int, item labeledQuery, s *Scratch, dst []float64) error {
	k.value(item, s, dst)
	return nil
}
