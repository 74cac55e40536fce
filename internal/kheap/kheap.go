// Package kheap implements a bounded max-heap that maintains the K smallest
// keys observed in a stream.
//
// It is the data structure behind Algorithm 2 of the paper: during a
// Monte-Carlo permutation pass, every training point is pushed in permutation
// order and the heap tells, in O(log K), whether the point entered the
// current K-nearest-neighbor set — only then does the utility change and need
// re-evaluation. It is also used for brute-force top-K search, where it beats
// a full sort whenever K << N.
package kheap

// Item is a keyed element kept by the heap. Key is the distance to the query;
// ID identifies the training point.
type Item struct {
	ID  int
	Key float64
}

// Heap keeps the K items with the smallest keys seen so far. The root is the
// largest retained key, so a new item displaces the root iff it is strictly
// closer. The zero value is not usable; call New.
type Heap struct {
	k     int
	items []Item // max-heap on Key
}

// New returns a heap retaining the k smallest-keyed items. It panics if
// k <= 0.
func New(k int) *Heap {
	if k <= 0 {
		panic("kheap: k must be positive")
	}
	return &Heap{k: k, items: make([]Item, 0, k)}
}

// K returns the retention bound.
func (h *Heap) K() int { return h.k }

// Len returns the number of retained items (<= K).
func (h *Heap) Len() int { return len(h.items) }

// Max returns the largest retained key and true, or 0 and false when empty.
func (h *Heap) Max() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// Push offers an item to the heap. It returns true when the item is retained,
// i.e. when the heap was not yet full or the item displaced the current
// maximum — exactly the condition under which the KNN set (and hence the KNN
// utility) changes. Ordering is lexicographic on (key, ID), so distance ties
// are broken by ascending training index regardless of insertion order; this
// matches the stable sort convention used by the exact Shapley recursions and
// makes every consumer deterministic.
func (h *Heap) Push(id int, key float64) bool {
	retained, _, _ := h.PushEvict(id, key)
	return retained
}

// PushEvict is Push that additionally reports the item displaced by the
// insertion. retained tells whether (id, key) entered the heap; evicted is
// valid only when hadEvict is true, which happens iff the heap was full and
// the new item displaced its maximum. Incremental KNN-utility evaluators use
// the evicted item to update running aggregates in O(1).
func (h *Heap) PushEvict(id int, key float64) (retained bool, evicted Item, hadEvict bool) {
	it := Item{ID: id, Key: key}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.siftUp(len(h.items) - 1)
		return true, Item{}, false
	}
	if !less(it, h.items[0]) {
		return false, Item{}, false
	}
	evicted = h.items[0]
	h.items[0] = it
	h.siftDown(0)
	return true, evicted, true
}

// Items returns the retained items in unspecified (heap) order. The slice
// aliases internal storage and is invalidated by the next Push or Reset.
func (h *Heap) Items() []Item { return h.items }

// Sorted returns a fresh slice of retained items ordered by ascending key,
// ties broken by ascending ID.
func (h *Heap) Sorted() []Item {
	out := make([]Item, len(h.items))
	copy(out, h.items)
	sortItems(out)
	return out
}

// SortedInPlace is Sorted without the copy: it orders the retained items in
// the heap's own storage and returns that, so the heap holds no usable
// state afterwards until Reset.
func (h *Heap) SortedInPlace() []Item {
	sortItems(h.items)
	return h.items
}

// sortItems orders items by (key, ID) by insertion sort: at most K items,
// and K is small.
func sortItems(items []Item) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && less(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func less(a, b Item) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.ID < b.ID
}

// Reset empties the heap, retaining capacity.
func (h *Heap) Reset() { h.items = h.items[:0] }

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		largest := i
		if l := 2*i + 1; l < n && less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r := 2*i + 2; r < n && less(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// TopKInto fills dst (reallocated only when too short) with the indices of
// the min(K, len(dist)) smallest values in dist, ordered by ascending value
// with ties broken by ascending index — the same prefix a full argsort of
// dist would produce. It is the partial-select primitive behind the
// truncated Shapley path: O(N + K log K) against the O(N log N) full sort.
//
// The call resets the heap, and sorting happens in place on the heap's
// storage, so the heap holds no usable state afterwards; reuse it only
// through further TopKInto calls (or Reset). Keys must not be NaN.
func (h *Heap) TopKInto(dst []int, dist []float64) []int {
	h.Reset()
	for i, d := range dist {
		h.Push(i, d)
	}
	items := h.SortedInPlace()
	if cap(dst) < len(items) {
		dst = make([]int, len(items))
	}
	dst = dst[:len(items)]
	for i, it := range items {
		dst[i] = it.ID
	}
	return dst
}

// TopK returns the indices of the k smallest values in dist, ordered by
// ascending distance with ties broken by ascending index. It is the
// selection primitive used by brute-force KNN search; hot loops should hold
// a Heap and use TopKInto instead.
func TopK(dist []float64, k int) []int {
	if k > len(dist) {
		k = len(dist)
	}
	if k <= 0 {
		return nil
	}
	return New(k).TopKInto(nil, dist)
}
