package core

import (
	"fmt"
	"sort"

	"knnshapley/internal/kheap"
	"knnshapley/internal/knn"
)

// MultiSellerSV computes the exact Shapley value of every *seller* when each
// seller contributes multiple training points (Section 4, Theorem 8), for a
// single test point and any of the four KNN utilities. owners[i] is the
// seller owning training point i; sellers are 0..m-1 and each must own at
// least one point.
//
// The algorithm enumerates the O(M^K) distinct K-nearest-neighbor sets A
// attainable by seller coalitions; every coalition whose extra sellers
// cannot perturb a given neighbor set is accounted for with a closed-form
// binomial factor (Eq. 84) rather than enumerated.
func MultiSellerSV(tp *knn.TestPoint, owners []int, m int) ([]float64, error) {
	return multiSellerSV(tp, owners, m, dataOnlyGroupWeights, NewScratch())
}

// multiSellerSV is shared by the data-only (Theorem 8) and composite
// (Theorem 12) variants, which differ only in the coalition-size weights.
// Every top-K selection and subset utility runs in the scratch's heap.
func multiSellerSV(tp *knn.TestPoint, owners []int, m int, weights func(m int) []float64, s *Scratch) ([]float64, error) {
	if len(owners) != tp.N() {
		return nil, fmt.Errorf("core: %d owners for %d training points", len(owners), tp.N())
	}
	points := make([][]int, m) // points[j] = training indices owned by seller j
	for i, o := range owners {
		if o < 0 || o >= m {
			return nil, fmt.Errorf("core: owner %d of point %d outside [0,%d)", o, i, m)
		}
		points[o] = append(points[o], i)
	}
	for j, pts := range points {
		if len(pts) == 0 {
			return nil, fmt.Errorf("core: seller %d owns no points", j)
		}
	}
	k := tp.K

	if k == 1 {
		// 1NN fast path (Section 4): the utility only sees the single
		// nearest point, so the seller game reduces to the per-point game on
		// each seller's closest point — O(M log M) instead of O(M^K).
		return oneNNSellerSV(tp, points, m, weights), nil
	}

	// neighborKey orders points by (distance, index); firstKey[j] is the key
	// of seller j's closest point.
	firstKey := make([]kheap.Item, m)
	for j, pts := range points {
		best := kheap.Item{ID: pts[0], Key: tp.Dist[pts[0]]}
		for _, i := range pts[1:] {
			if it := (kheap.Item{ID: i, Key: tp.Dist[i]}); itemLess(it, best) {
				best = it
			}
		}
		firstKey[j] = best
	}

	// topK returns the K nearest points of the union of the given sellers'
	// data, as (sorted ids, owners-bitset-as-sorted-slice, max key).
	h := s.heapOf(k)
	topK := func(sellers []int) ([]int, []int, kheap.Item) {
		h.Reset()
		for _, j := range sellers {
			for _, i := range points[j] {
				h.Push(i, tp.Dist[i])
			}
		}
		items := h.Sorted()
		ids := make([]int, len(items))
		ownSet := map[int]bool{}
		var maxKey kheap.Item
		for r, it := range items {
			ids[r] = it.ID
			ownSet[owners[it.ID]] = true
			maxKey = it
		}
		own := make([]int, 0, len(ownSet))
		for j := range ownSet {
			own = append(own, j)
		}
		sort.Ints(own)
		return ids, own, maxKey
	}

	// Enumerate the canonical neighbor sets A: for every seller coalition S̃
	// of size ≤ K whose top-K points are owned by exactly S̃.
	type entry struct {
		ids    []int      // the K (or fewer) nearest point indices
		own    []int      // h(S): owners of ids (== generating coalition)
		maxKey kheap.Item // farthest member, for the G(S,j) test
		util   float64    // ν evaluated on ids
	}
	var atoms []entry
	maxSize := k
	if maxSize > m {
		maxSize = m
	}
	for size := 1; size <= maxSize; size++ {
		forEachCombination(m, size, func(comb []int) {
			ids, own, maxKey := topK(comb)
			if len(own) != size {
				return // canonical generator is the smaller owner set
			}
			for r, j := range own {
				if j != comb[r] {
					return
				}
			}
			atoms = append(atoms, entry{ids: ids, own: own, maxKey: maxKey, util: tp.SubsetUtilityWith(h, ids)})
		})
	}

	w := weights(m) // w[t] = weight of a coalition of t sellers
	empty := tp.EmptyUtility()
	sv := make([]float64, m)
	for j := 0; j < m; j++ {
		// The empty coalition: T = ∅ pairs only with S = ∅.
		withJ, _, _ := topK([]int{j})
		sv[j] += w[0] * (tp.SubsetUtilityWith(h, withJ) - empty)
		for _, a := range atoms {
			if containsInt(a.own, j) {
				continue
			}
			// G(S, j): sellers outside h(S)∪{j} whose closest point lies
			// beyond S's farthest member; they can join the coalition
			// without disturbing the neighbor set. Only meaningful when the
			// neighbor set is full (|S| = K) — otherwise any added point
			// enters it.
			g := 0
			if len(a.ids) == k {
				for jj := 0; jj < m; jj++ {
					if jj == j || containsInt(a.own, jj) {
						continue
					}
					if itemLess(a.maxKey, firstKey[jj]) {
						g++
					}
				}
			}
			// ν(T∪{j}) for every such coalition equals ν(top-K(S ∪ data_j)).
			h.Reset()
			for _, i := range a.ids {
				h.Push(i, tp.Dist[i])
			}
			for _, i := range points[j] {
				h.Push(i, tp.Dist[i])
			}
			items := h.Sorted()
			ids := make([]int, len(items))
			for r, it := range items {
				ids[r] = it.ID
			}
			diff := tp.SubsetUtilityWith(h, ids) - a.util
			if diff == 0 {
				continue
			}
			// Σ_{extra=0}^{g} C(g, extra) · w[|h(S)|+extra].
			coef := 0.0
			binom := 1.0
			for extra := 0; extra <= g; extra++ {
				coef += binom * w[len(a.own)+extra]
				binom = binom * float64(g-extra) / float64(extra+1)
			}
			sv[j] += coef * diff
		}
	}
	return sv, nil
}

// oneNNSellerSV reduces the K=1 multi-seller game to a per-point game on
// each seller's nearest representative and solves it with the generic
// counting machinery (which at K=1 costs O(M) beyond the O(M log M) sort).
func oneNNSellerSV(tp *knn.TestPoint, points [][]int, m int, weights func(m int) []float64) []float64 {
	reduced := &knn.TestPoint{
		Kind:   tp.Kind,
		K:      1,
		Weight: tp.Weight,
		YTest:  tp.YTest,
		Dist:   make([]float64, m),
	}
	if tp.Kind.IsRegression() {
		reduced.Y = make([]float64, m)
	} else {
		reduced.Correct = make([]bool, m)
	}
	for j, pts := range points {
		best := pts[0]
		for _, i := range pts[1:] {
			if tp.Dist[i] < tp.Dist[best] || (tp.Dist[i] == tp.Dist[best] && i < best) {
				best = i
			}
		}
		reduced.Dist[j] = tp.Dist[best]
		if tp.Kind.IsRegression() {
			reduced.Y[j] = tp.Y[best]
		} else {
			reduced.Correct[j] = tp.Correct[best]
		}
	}
	w := weights(m)
	return countingSV(reduced, svWeights{
		subset: func(k int) float64 { return w[k] },
		pair: func(k int) float64 {
			if k+1 < len(w) {
				return w[k] + w[k+1]
			}
			return w[k]
		},
		pairRatio: func(k int) float64 {
			a := w[k] + w[k+1]
			var b float64
			if k+2 < len(w) {
				b = w[k+1] + w[k+2]
			}
			return b / a
		},
	})
}

// dataOnlyGroupWeights returns w[t] = (1/M)·1/C(M−1,t), the Shapley
// coalition-size weights of the M-seller data-only game (Eq. 84).
func dataOnlyGroupWeights(m int) []float64 {
	w := make([]float64, m)
	w[0] = 1 / float64(m)
	for t := 1; t < m; t++ {
		// 1/C(M−1,t) = 1/C(M−1,t−1) · t/(M−t).
		w[t] = w[t-1] * float64(t) / float64(m-t)
	}
	return w
}

func containsInt(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

// itemLess orders by (distance, index), matching kheap's convention.
func itemLess(a, b kheap.Item) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.ID < b.ID
}
