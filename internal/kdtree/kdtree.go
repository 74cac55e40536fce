// Package kdtree implements a k-d tree for exact K-nearest-neighbor queries
// under the l2 metric. Section 3.2 of the paper names kd-trees [MA98] as the
// classic alternative to LSH for accelerating the K*-neighbor retrieval that
// drives the truncated Shapley approximation (Theorem 2); this package is
// that alternative backend. It is exact (recall 1) and shines in low
// dimension, whereas LSH wins in high dimension — the repository exposes
// both so the trade-off is measurable.
package kdtree

import (
	"fmt"
	"math"
	"sort"

	"knnshapley/internal/kheap"
	"knnshapley/internal/vec"
)

// Tree is an immutable k-d tree over a fixed point set.
type Tree struct {
	data [][]float64
	// nodes in implicit pre-order: node i splits on axis[i] at split[i];
	// point[i] is the training index stored at the node.
	point []int
	axis  []int
	split []float64
	left  []int32
	right []int32
	root  int32

	// leafSize is the bucket size below which points are stored linearly.
	leafSize int
	// leaves holds bucket contents for leaf nodes (indexed by ^left value).
	leaves [][]int
}

// DefaultLeafSize is the bucket size Build selects when given <= 0.
const DefaultLeafSize = 16

// Build constructs a tree over data with the given leaf bucket size
// (<= 0 selects DefaultLeafSize).
func Build(data [][]float64, leafSize int) (*Tree, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("kdtree: empty dataset")
	}
	dim := len(data[0])
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("kdtree: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	t := &Tree{data: data, leafSize: leafSize}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx, 0)
	return t, nil
}

// build recursively partitions idx (which it may reorder) and returns the
// node id, or ^leafID for leaves.
func (t *Tree) build(idx []int, depth int) int32 {
	if len(idx) <= t.leafSize {
		leaf := append([]int(nil), idx...)
		t.leaves = append(t.leaves, leaf)
		return int32(^(len(t.leaves) - 1))
	}
	dim := len(t.data[0])
	// Split on the axis with the largest spread for better balance than
	// plain depth cycling.
	axis := depth % dim
	var bestSpread float64
	for d := 0; d < dim; d++ {
		lo, hi := t.data[idx[0]][d], t.data[idx[0]][d]
		for _, i := range idx {
			v := t.data[i][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s := hi - lo; s > bestSpread {
			bestSpread, axis = s, d
		}
	}
	sort.Slice(idx, func(a, b int) bool { return t.data[idx[a]][axis] < t.data[idx[b]][axis] })
	mid := len(idx) / 2
	node := len(t.point)
	t.point = append(t.point, idx[mid])
	t.axis = append(t.axis, axis)
	t.split = append(t.split, t.data[idx[mid]][axis])
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	t.left[node] = t.build(idx[:mid], depth+1)
	t.right[node] = t.build(idx[mid+1:], depth+1)
	return int32(node)
}

// N returns the number of indexed points.
func (t *Tree) N() int { return len(t.data) }

// Query returns the indices and distances of the k nearest neighbors of q,
// ordered by ascending (distance, index). It is exact.
func (t *Tree) Query(q []float64, k int) (ids []int, dists []float64) {
	if k <= 0 {
		return nil, nil
	}
	h := kheap.New(k)
	t.search(t.root, q, h)
	items := h.Sorted()
	ids = make([]int, len(items))
	dists = make([]float64, len(items))
	for i, it := range items {
		ids[i] = it.ID
		dists[i] = it.Key
	}
	return ids, dists
}

func (t *Tree) search(node int32, q []float64, h *kheap.Heap) {
	if node < 0 {
		// Four points per vec.SqL2x4 call, the rest one by one; the pushes
		// keep the leaf's order.
		leaf := t.leaves[^node]
		var d [4]float64
		for len(leaf) >= 4 {
			vec.SqL2x4(&d, t.data[leaf[0]], t.data[leaf[1]], t.data[leaf[2]], t.data[leaf[3]], q)
			for j, v := range d {
				h.Push(leaf[j], math.Sqrt(v))
			}
			leaf = leaf[4:]
		}
		for _, i := range leaf {
			h.Push(i, vec.L2Dist(t.data[i], q))
		}
		return
	}
	n := int(node)
	h.Push(t.point[n], vec.L2Dist(t.data[t.point[n]], q))
	diff := q[t.axis[n]] - t.split[n]
	near, far := t.left[n], t.right[n]
	if diff > 0 {
		near, far = far, near
	}
	t.search(near, q, h)
	// Prune the far side unless the splitting plane is at most as far as the
	// current k-th neighbor (equality matters: an equidistant far point with
	// a smaller index wins ties) or the heap still has room.
	if h.Len() < h.K() {
		t.search(far, q, h)
	} else if it, _ := h.Max(); abs(diff) <= it.Key {
		t.search(far, q, h)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
