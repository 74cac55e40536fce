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
// scan cost (only colliding points are examined) against recall. Every query
// goes through QueryGroup, which serves up to GroupSize queries per pass
// over the tables; Query and QueryTables are groups of one. Queries are safe
// for concurrent use.
type Index struct {
	params Params
	data   [][]float64
	tables []table

	// scratch pools per-goroutine query state so concurrent queries
	// neither race nor allocate.
	scratch sync.Pool
}

// queryScratch is the reusable state of one QueryGroup call.
type queryScratch struct {
	visited []uint32 // dedup stamps, one per training point
	stamp   uint32
	dots    []float64   // GroupSize×M projections of the current table
	keys    []uint64    // the group's bucket keys, table-major
	buckets [][]uint32  // one query's bucket in each table
	heap    *kheap.Heap // the query's k nearest candidates
}

func newIndex(params Params, data [][]float64) *Index {
	n, m := len(data), params.M
	return &Index{
		params: params,
		data:   data,
		tables: make([]table, params.L),
		scratch: sync.Pool{New: func() any {
			return &queryScratch{visited: make([]uint32, n), dots: make([]float64, GroupSize*m)}
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
				dots: make([]float64, 2*params.M),
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
	dots   []float64 // a row pair's projections
	keys   []uint64  // bucket key of each point, then sorted
	sorter vec.DistSorter
}

// fill hashes every row into tb (whose projections are set), lays the
// buckets out in CSR form, sorted by (key, id), and builds the directory.
// The ids arrive ascending and the sort is stable, so each bucket's ids
// stay ascending.
func (b *tableBuilder) fill(tb *table, data [][]float64, r float64) {
	n, m := len(data), len(tb.offset)
	tb.ids = make([]uint32, n)
	for i := range tb.ids {
		tb.ids[i] = uint32(i)
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		vec.DotRows2(b.dots[:m], b.dots[m:], tb.proj, data[i], data[i+1])
		foldKeys(b.keys[i:i+2], b.dots, tb.offset, r)
	}
	if i < n {
		vec.DotRows(b.dots[:m], tb.proj, data[i])
		foldKeys(b.keys[i:i+1], b.dots, tb.offset, r)
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

// GroupSize is the most queries QueryGroup hashes in one pass over the
// tables. BenchmarkQuery's 16 queries of the ann_index shape (N=5,000,
// dim 64, 512 tables, K*=10) took 7.3–8.5 ms in groups of one, 5.6–6.8 ms
// in groups of two, 4.9–5.6 ms in groups of four and 4.6–5.5 ms in groups
// of eight (5 runs each on a 2-vCPU Xeon host). Eight queries' projections
// of one table (8×19 float64) fit in L1 beside the table's own.
const GroupSize = 8

// Query returns the (approximate) k nearest neighbors of q: the union of all
// colliding bucket entries, deduplicated, ranked by exact l2 distance. It is
// QueryGroup for one query over every table.
func (idx *Index) Query(q []float64, k int) Result {
	return idx.QueryTables(q, k, len(idx.tables))
}

// QueryTables is Query restricted to the first l tables — the knob behind
// the "number of hash tables" sweep of Figure 9b.
func (idx *Index) QueryTables(q []float64, k, l int) Result {
	var res [1]Result
	idx.QueryGroup(res[:], [][]float64{q}, k, l)
	return res[0]
}

// QueryGroup sets dst[i] to QueryTables(qs[i], k, l) for every query, bit
// for bit; dst must be as long as qs, and dst[i]'s IDs and Dists arrays are
// reused when they are large enough. It takes the queries GroupSize at a
// time in three phases. First, table by table, it projects the group (two
// queries per vec.DotRows2 pass, so each table's projections are read once
// per pair and stay in cache for the group) and folds the group's keys with
// interleaved FNV-1a chains. Then, for each query, it resolves the query's
// bucket in every table, so that the lookups' cache misses overlap. Last,
// it walks those buckets in table order, as a single query always has.
func (idx *Index) QueryGroup(dst []Result, qs [][]float64, k, l int) {
	if len(dst) != len(qs) {
		panic(fmt.Sprintf("lsh: %d results for %d queries", len(dst), len(qs)))
	}
	l = min(l, len(idx.tables))
	if k <= 0 || l <= 0 {
		clear(dst)
		return
	}
	sc := idx.scratch.Get().(*queryScratch)
	defer idx.scratch.Put(sc)
	if kk := min(k, len(idx.data)); sc.heap == nil || sc.heap.K() != kk {
		sc.heap = kheap.New(kk)
	}
	if len(sc.buckets) < l {
		sc.keys = make([]uint64, l*GroupSize)
		sc.buckets = make([][]uint32, l)
	}
	for lo := 0; lo < len(qs); lo += GroupSize {
		group := qs[lo:min(lo+GroupSize, len(qs))]
		idx.hashGroup(sc, group, l)
		for j, q := range group {
			for t := range sc.buckets[:l] {
				sc.buckets[t] = idx.tables[t].bucket(sc.keys[t*len(group)+j])
			}
			idx.rank(sc, q, sc.buckets[:l], &dst[lo+j])
		}
	}
}

// hashGroup sets sc.keys[t*len(qs)+j] to query j's bucket key in table t,
// for the first l tables.
func (idx *Index) hashGroup(sc *queryScratch, qs [][]float64, l int) {
	m, g := idx.params.M, len(qs)
	dots := sc.dots[:g*m]
	for t := range l {
		tb := &idx.tables[t]
		j := 0
		for ; j+2 <= g; j += 2 {
			vec.DotRows2(dots[j*m:(j+1)*m], dots[(j+1)*m:(j+2)*m], tb.proj, qs[j], qs[j+1])
		}
		if j < g {
			vec.DotRows(dots[j*m:], tb.proj, qs[j])
		}
		foldKeys(sc.keys[t*g:(t+1)*g], dots, tb.offset, idx.params.R)
	}
}

// foldKeys folds the projections of up to GroupSize points into their
// bucket keys: dots holds point p's projections w_j·x at
// dots[p*M : (p+1)*M] (M = len(offset)), and keys[p] gets
// h_j = ⌊(w_j·x + b_j)/r⌋ truncated to int32, then FNV-1a over the
// little-endian bytes of h_0..h_{M-1}. The points' chains are independent,
// so folding them side by side lets the CPU overlap their multiplies.
func foldKeys(keys []uint64, dots, offset []float64, r float64) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var h [GroupSize]uint64
	g, m := len(keys), len(offset)
	for p := range g {
		h[p] = offset64
	}
	for j, off := range offset {
		for p := range g {
			u := uint32(int32(floorInt((dots[p*m+j] + off) / r)))
			x := h[p]
			x = (x ^ uint64(u&0xff)) * prime64
			x = (x ^ uint64(u>>8&0xff)) * prime64
			x = (x ^ uint64(u>>16&0xff)) * prime64
			h[p] = (x ^ uint64(u>>24)) * prime64
		}
	}
	copy(keys, h[:g])
}

// rank walks one query's buckets in table order, deduplicating the ids,
// and sets res to the k nearest of them by exact distance.
func (idx *Index) rank(sc *queryScratch, q []float64, buckets [][]uint32, res *Result) {
	sc.stamp++
	if sc.stamp == 0 { // wrapped: clear stamps
		clear(sc.visited)
		sc.stamp = 1
	}
	h := sc.heap
	h.Reset()
	candidates := 0
	// New candidates wait in pend until four have arrived, then get their
	// distances from one vec.SqL2x4 call; the heap sees them in the order
	// they were found.
	var pend [4]uint32
	var d [4]float64
	np := 0
	for _, b := range buckets {
		for _, i := range b {
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
	items := h.SortedInPlace()
	res.IDs, res.Dists, res.Candidates = res.IDs[:0], res.Dists[:0], candidates
	for _, it := range items {
		res.IDs = append(res.IDs, it.ID)
		res.Dists = append(res.Dists, it.Key)
	}
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
