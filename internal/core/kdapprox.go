package core

import (
	"context"
	"fmt"

	"knnshapley/internal/dataset"
	"knnshapley/internal/kdtree"
)

// KDValuer computes (eps, 0)-approximate Shapley values for unweighted KNN
// classification by retrieving the K* = max{K, ⌈1/eps⌉} nearest neighbors
// from a k-d tree instead of sorting the full training set. Unlike the LSH
// valuer it is exact in retrieval (δ = 0, Theorem 2 alone bounds the error)
// and it excels in low dimension; Section 3.2 names kd-trees as the classic
// alternative to LSH for this role.
type KDValuer struct {
	k     int
	kStar int
	train *dataset.Dataset
	tree  *kdtree.Tree
}

// NewKDValuer builds the tree over the training set.
func NewKDValuer(train *dataset.Dataset, k int, eps float64, leafSize int) (*KDValuer, error) {
	if k <= 0 || eps <= 0 {
		return nil, fmt.Errorf("core: invalid kd-valuer config k=%d eps=%v", k, eps)
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.IsRegression() {
		return nil, fmt.Errorf("core: the truncated approximation applies to classification")
	}
	tree, err := kdtree.Build(train.X, leafSize)
	if err != nil {
		return nil, err
	}
	return newKDValuer(train, k, eps, tree), nil
}

// newKDValuer attaches tree to train. The retrieval depth is K* capped at
// N: a deeper query returns the same N neighbors, and the heap behind it
// allocates one slot per unit of depth.
func newKDValuer(train *dataset.Dataset, k int, eps float64, tree *kdtree.Tree) *KDValuer {
	return &KDValuer{k: k, kStar: min(KStar(k, eps), train.N()), train: train, tree: tree}
}

// KStar returns the retrieval depth, K* capped at N.
func (v *KDValuer) KStar() int { return v.kStar }

// ValueOne returns the (eps, 0)-approximate Shapley values for one query.
func (v *KDValuer) ValueOne(q []float64, label int) []float64 {
	sv := make([]float64, v.train.N())
	v.valueInto(labeledQuery{q: q, label: label}, NewScratch(), sv)
	return sv
}

// valueInto is the scratch-aware ValueOne writing into a zeroed dst.
func (v *KDValuer) valueInto(item labeledQuery, s *Scratch, dst []float64) {
	ids, _ := v.tree.Query(item.q, v.kStar)
	AddValues(s.packedLabels(ids, v.train.Labels, item.label), v.train.N(), v.k, v.kStar, dst)
}

// ValueEngine averages ValueOne over a test set, streaming the queries
// through an Engine configured by ec; a canceled ctx aborts within one
// engine batch.
func (v *KDValuer) ValueEngine(ctx context.Context, test *dataset.Dataset, ec EngineConfig) ([]float64, error) {
	if test.IsRegression() {
		return nil, fmt.Errorf("core: classification test set required")
	}
	if test.Dim() != v.train.Dim() {
		return nil, fmt.Errorf("core: test dim %d != train dim %d", test.Dim(), v.train.Dim())
	}
	if test.N() == 0 {
		return make([]float64, v.train.N()), nil
	}
	eng := NewEngine[labeledQuery](ec)
	return eng.Run(ctx, &querySource{test: test}, queryKernel{n: v.train.N(), value: v.valueInto})
}
