package lsh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"knnshapley/internal/kheap"
	"knnshapley/internal/vec"
)

// Params configures an Index.
type Params struct {
	// M is the number of hash functions concatenated per table signature.
	M int
	// L is the number of hash tables.
	L int
	// R is the bucket width of each hash function, in absolute distance
	// units (multiply a relative width by D_mean when tuning).
	R float64
	// Seed drives the Gaussian projections and offsets.
	Seed uint64
}

func (p Params) validate() error {
	if p.M <= 0 || p.L <= 0 || p.R <= 0 {
		return fmt.Errorf("lsh: invalid params %+v", p)
	}
	return nil
}

// table is one hash table: M Gaussian projections with offsets, and its
// buckets in CSR form. Bucket b has signature keys[b] and holds the
// training indices ids[starts[b]:starts[b+1]]. keys ascend strictly, every
// bucket is non-empty, ids ascend within a bucket, and ids holds every
// point exactly once, so len(starts) = len(keys)+1 and starts ends at N.
//
// slots is the query-time directory over keys, derived from them and never
// persisted: an open-addressed array of a power-of-two length at least
// twice len(keys), holding b+1 for bucket b (0 = empty) in the first free
// slot at or after key>>shift. Keys are FNV hashes, so their top bits
// spread buckets evenly and a lookup touches about one slot; measured on
// the ann_index shape it answers queries faster than a binary search over
// keys.
type table struct {
	proj   []float64 // M×dim, row-major
	offset []float64 // M
	keys   []uint64
	starts []uint32
	ids    []uint32
	slots  []uint32
	shift  uint
}

// fillSlots builds the slots directory from keys.
func (tb *table) fillSlots() {
	size, bits := 2, uint(1)
	for size < 2*len(tb.keys) {
		size <<= 1
		bits++
	}
	tb.slots = make([]uint32, size)
	tb.shift = 64 - bits
	mask := uint64(size - 1)
	for b, key := range tb.keys {
		s := key >> tb.shift
		for tb.slots[s] != 0 {
			s = (s + 1) & mask
		}
		tb.slots[s] = uint32(b + 1)
	}
}

// bucket returns the ids hashed to key, or nil when no point was.
func (tb *table) bucket(key uint64) []uint32 {
	mask := uint64(len(tb.slots) - 1)
	for s := key >> tb.shift; ; s = (s + 1) & mask {
		e := tb.slots[s]
		if e == 0 {
			return nil
		}
		if tb.keys[e-1] == key {
			return tb.ids[tb.starts[e-1]:tb.starts[e]]
		}
	}
}

// Index is a multi-table p-stable LSH index over a fixed training set.
// Queries return candidates ranked by exact distance, so the index trades
// scan cost (only colliding points are examined) against recall.
// Queries are safe for concurrent use.
type Index struct {
	params Params
	data   [][]float64
	tables []table

	// scratch pools per-goroutine query state (stamped dedup array +
	// projection buffer) so concurrent queries neither race nor allocate.
	scratch sync.Pool
}

// queryScratch is the reusable per-query state.
type queryScratch struct {
	visited []uint32
	stamp   uint32
	dots    []float64
}

func newIndex(params Params, data [][]float64) *Index {
	n, m := len(data), params.M
	return &Index{
		params: params,
		data:   data,
		tables: make([]table, params.L),
		scratch: sync.Pool{New: func() any {
			return &queryScratch{visited: make([]uint32, n), dots: make([]float64, m)}
		}},
	}
}

// checkData reports why data cannot be indexed: no rows, more rows than
// uint32 ids address, or rows of unequal length.
func checkData(data [][]float64) error {
	if len(data) == 0 {
		return fmt.Errorf("lsh: empty dataset")
	}
	if uint64(len(data)) > math.MaxUint32 {
		return fmt.Errorf("lsh: %d points exceed the uint32 id range", len(data))
	}
	dim := len(data[0])
	for i, x := range data {
		if len(x) != dim {
			return fmt.Errorf("lsh: row %d has dim %d, want %d", i, len(x), dim)
		}
	}
	return nil
}

// Build hashes every row of data into L tables. Cost is O(N·L·M·dim).
// The projections and offsets are drawn up front from one seeded stream,
// then up to workers goroutines (0 = GOMAXPROCS) hash and bucket whole
// tables in parallel; each needs only O(N) scratch, and the index is the
// same for every workers value.
func Build(data [][]float64, params Params, workers int) (*Index, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if err := checkData(data); err != nil {
		return nil, err
	}
	dim := len(data[0])
	rng := rand.New(rand.NewPCG(params.Seed, 0x853c49e6748fea9b))
	idx := newIndex(params, data)
	for t := range idx.tables {
		tb := &idx.tables[t]
		tb.proj = make([]float64, params.M*dim)
		tb.offset = make([]float64, params.M)
		for j := range tb.offset {
			w := tb.proj[j*dim : (j+1)*dim]
			for d := range w {
				w[d] = rng.NormFloat64()
			}
			tb.offset[j] = rng.Float64() * params.R
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(workers, params.L) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &tableBuilder{
				d0:   make([]float64, params.M),
				d1:   make([]float64, params.M),
				keys: make([]uint64, len(data)),
			}
			for t := int(next.Add(1) - 1); t < params.L; t = int(next.Add(1) - 1) {
				b.fill(&idx.tables[t], data, params.R)
			}
		}()
	}
	wg.Wait()
	return idx, nil
}

// tableBuilder is one build worker's O(N) scratch.
type tableBuilder struct {
	d0, d1 []float64
	keys   []uint64 // bucket key of each point, then sorted
	sorter vec.DistSorter
}

// fill hashes every row into tb (whose projections are set), lays the
// buckets out in CSR form, sorted by (key, id), and builds the directory.
// The ids arrive ascending and the sort is stable, so each bucket's ids
// stay ascending.
func (b *tableBuilder) fill(tb *table, data [][]float64, r float64) {
	n := len(data)
	tb.ids = make([]uint32, n)
	i := 0
	for ; i+2 <= n; i += 2 {
		vec.DotRows2(b.d0, b.d1, tb.proj, data[i], data[i+1])
		b.keys[i], tb.ids[i] = hashKey(b.d0, tb.offset, r), uint32(i)
		b.keys[i+1], tb.ids[i+1] = hashKey(b.d1, tb.offset, r), uint32(i+1)
	}
	if i < n {
		vec.DotRows(b.d0, tb.proj, data[i])
		b.keys[i], tb.ids[i] = hashKey(b.d0, tb.offset, r), uint32(i)
	}
	b.sorter.SortKeys(b.keys, tb.ids)
	u := 1
	for p := 1; p < n; p++ {
		if b.keys[p] != b.keys[p-1] {
			u++
		}
	}
	tb.keys = make([]uint64, 0, u)
	tb.starts = make([]uint32, 0, u+1)
	for p, k := range b.keys {
		if p == 0 || k != b.keys[p-1] {
			tb.keys = append(tb.keys, k)
			tb.starts = append(tb.starts, uint32(p))
		}
	}
	tb.starts = append(tb.starts, uint32(n))
	tb.fillSlots()
}

// hashKey folds one point's M projections dots[j] = w_j·x into its bucket
// key: h_j = ⌊(w_j·x + b_j)/r⌋ truncated to int32, then FNV-1a over the
// little-endian bytes of h_0..h_{M-1}.
func hashKey(dots, offset []float64, r float64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for j, d := range dots {
		u := uint32(int32(floorInt((d + offset[j]) / r)))
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64((u >> uint(shift)) & 0xff)
			h *= prime64
		}
	}
	return h
}

func floorInt(v float64) int64 {
	i := int64(v)
	if v < 0 && float64(i) != v {
		i--
	}
	return i
}

// Params returns the index configuration.
func (idx *Index) Params() Params { return idx.params }

// N returns the number of indexed points.
func (idx *Index) N() int { return len(idx.data) }

// Tables returns the number of hash tables.
func (idx *Index) Tables() int { return len(idx.tables) }

// Result is the outcome of a Query.
type Result struct {
	// IDs are the candidate indices closest to the query, ordered by
	// ascending (exact distance, index); at most k entries, fewer when the
	// tables yield fewer distinct candidates.
	IDs []int
	// Dists are the exact distances matching IDs.
	Dists []float64
	// Candidates is the number of distinct points examined (the "returned
	// points" axis of Figure 9c).
	Candidates int
}

// Query returns the (approximate) k nearest neighbors of q: the union of all
// colliding bucket entries, deduplicated, ranked by exact l2 distance.
func (idx *Index) Query(q []float64, k int) Result {
	return idx.QueryTables(q, k, len(idx.tables))
}

// QueryTables is Query restricted to the first l tables — the knob behind
// the "number of hash tables" sweep of Figure 9b.
func (idx *Index) QueryTables(q []float64, k, l int) Result {
	if l > len(idx.tables) {
		l = len(idx.tables)
	}
	if k <= 0 || l <= 0 {
		return Result{}
	}
	sc := idx.scratch.Get().(*queryScratch)
	defer idx.scratch.Put(sc)
	sc.stamp++
	if sc.stamp == 0 { // wrapped: clear stamps
		clear(sc.visited)
		sc.stamp = 1
	}
	h := kheap.New(k)
	candidates := 0
	// New candidates wait in pend until four have arrived, then get their
	// distances from one vec.SqL2x4 call; the heap sees them in the order
	// they were found.
	var pend [4]uint32
	var d [4]float64
	np := 0
	for t := 0; t < l; t++ {
		tb := &idx.tables[t]
		vec.DotRows(sc.dots, tb.proj, q)
		for _, i := range tb.bucket(hashKey(sc.dots, tb.offset, idx.params.R)) {
			if sc.visited[i] == sc.stamp {
				continue
			}
			sc.visited[i] = sc.stamp
			candidates++
			pend[np] = i
			np++
			if np < 4 {
				continue
			}
			vec.SqL2x4(&d, idx.data[pend[0]], idx.data[pend[1]], idx.data[pend[2]], idx.data[pend[3]], q)
			for j, v := range d {
				h.Push(int(pend[j]), math.Sqrt(v))
			}
			np = 0
		}
	}
	for _, i := range pend[:np] {
		h.Push(int(i), vec.L2Dist(idx.data[i], q))
	}
	items := h.Sorted()
	res := Result{
		IDs:        make([]int, len(items)),
		Dists:      make([]float64, len(items)),
		Candidates: candidates,
	}
	for i, it := range items {
		res.IDs[i] = it.ID
		res.Dists[i] = it.Key
	}
	return res
}

// Recall returns the fraction of the true k nearest neighbors of q that
// appear among got — the retrieval-quality axis of Figure 9d.
func Recall(truth, got []int) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, i := range got {
		in[i] = true
	}
	hit := 0
	for _, i := range truth {
		if in[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
