// Incremental delta valuation: cached neighbor rankings patched in O(ΔN).
//
// A from-scratch valuation spends almost all its time producing, per test
// point, the training points sorted by distance; the Shapley recursion over
// that ranking is comparatively free. A RankEntry caches exactly that
// product — each test point's packed (index, correctness) list in rank order
// and its distances — so re-valuing an unchanged dataset is a pure replay,
// and re-valuing after a delta costs only the ΔN new rows:
//
//   - Append: distances of the ΔN new points against every test point come
//     from a miniature shard scan (the same GEMV norm-precompute kernels the
//     cluster workers run), each new point's rank is found by binary search
//     on the cached ordering, and the result is recorded as an insertion
//     overlay on the parent's arrays — nothing of the O(N) base is copied.
//   - Remove: the surviving rows are compacted into a fresh base with
//     indices remapped (O(N), but removal changes every surviving index, so
//     there is no smaller honest representation).
//
// A replay runs core.AddValues over each test point's min(K*, N) prefix of
// the patched view, ordered by the engine's exact (DistKeyBits, index) key
// and spliced out of base and overlay first when the entry is patched. The
// values are bit-identical to a from-scratch run on the post-delta dataset —
// the equivalence the incremental tests pin with Float64bits comparisons.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"knnshapley/internal/core"
	"knnshapley/internal/registry"
	"knnshapley/internal/vec"
)

// rankLists is the immutable base of a cached ranking: one packed neighbor
// list and one distance list per test point, both of length n in rank order.
type rankLists struct {
	n     int
	idx   [][]uint32
	dist  [][]float64
	bytes int64
}

// overlayTP is one test point's insertion overlay: pos[j] is the strictly
// ascending child rank of inserted element idx[j] (packed, correctness bit
// included), dist[j] its distance — kept so further appends can rank against
// the patched view without touching the base.
type overlayTP struct {
	pos  []int32
	idx  []uint32
	dist []float64
}

// RankEntry is one cached (dataset, test set, knobs) neighbor ranking,
// possibly patched with appended rows. Entries are immutable after
// construction: PatchAppend and WithRemoved return new entries, sharing the
// parent's base arrays where the math allows. n is the child training-set
// size (base rows plus overlay insertions).
type RankEntry struct {
	base  *rankLists
	ins   []overlayTP // nil when the entry is its own base
	n     int
	ntest int
	bytes int64
}

// Bytes reports the entry's accounted size: 12 bytes per base element and 16
// per overlay element. A patched entry counts its shared base in full —
// conservative double-counting that keeps the cache budget an upper bound on
// real memory.
func (e *RankEntry) Bytes() int64 { return e.bytes }

// N returns the training rows covered; NTest the test points.
func (e *RankEntry) N() int     { return e.n }
func (e *RankEntry) NTest() int { return e.ntest }

// Patched reports whether the entry carries an insertion overlay.
func (e *RankEntry) Patched() bool { return e.ins != nil }

// NewRankEntry adopts a full single-shard report (Limit 0, offset 0) as a
// cache entry. Every list must cover all GlobalN training rows — partial
// reports cannot be patched or replayed exactly — and every packed index is
// range-checked here once, so no replay can index past its accumulator.
func NewRankEntry(sr *ShardReport) (*RankEntry, error) {
	n := sr.GlobalN
	if n <= 0 || len(sr.Idx) == 0 {
		return nil, errors.New("cluster: rank entry needs a non-empty report")
	}
	if len(sr.Idx) != len(sr.Dist) {
		return nil, fmt.Errorf("cluster: report has %d index lists, %d distance lists", len(sr.Idx), len(sr.Dist))
	}
	base := &rankLists{n: n, idx: sr.Idx, dist: sr.Dist}
	for t, l := range sr.Idx {
		if len(l) != n || len(sr.Dist[t]) != n {
			return nil, fmt.Errorf("cluster: rank entry needs full rankings: test point %d has %d of %d entries", t, len(l), n)
		}
		for _, v := range l {
			if int(v&^correctBit) >= n {
				return nil, fmt.Errorf("cluster: test point %d: packed index out of range", t)
			}
		}
		base.bytes += int64(n) * 12
	}
	return &RankEntry{base: base, n: n, ntest: len(sr.Idx), bytes: base.bytes}, nil
}

// splice visits the entry's child-coordinate ranking of test point t in rank
// order, overlay elements interleaved at their recorded positions.
func (e *RankEntry) splice(t int, fn func(v uint32, d float64)) {
	b, bd := e.base.idx[t], e.base.dist[t]
	if e.ins == nil {
		for r := range b {
			fn(b[r], bd[r])
		}
		return
	}
	ov := &e.ins[t]
	oi := 0
	for r := 0; r < e.n; r++ {
		if oi < len(ov.pos) && int(ov.pos[oi]) == r {
			fn(ov.idx[oi], ov.dist[oi])
			oi++
		} else {
			fn(b[r-oi], bd[r-oi])
		}
	}
}

// flattenThreshold is the overlay size past which PatchAppend materializes
// the spliced ranking into a fresh base: each overlay element costs every
// later replay a splice step, so past ~an eighth of the base the one-time
// O(N) copy amortizes.
func (e *RankEntry) flattenThreshold() int {
	return max(1024, e.base.n/8)
}

// PatchAppend merges a delta report — the ΔN appended rows ranked against
// the same test points, with global offset equal to the parent's n — into a
// new entry for the grown dataset. The parent's base arrays are shared; only
// overlays are built, so the cost is O(ΔN log N + overlay) per test point.
func (e *RankEntry) PatchAppend(delta *ShardReport) (*RankEntry, error) {
	if delta == nil {
		return nil, errors.New("cluster: nil delta report")
	}
	if len(delta.Idx) != e.ntest || len(delta.Dist) != e.ntest {
		return nil, fmt.Errorf("cluster: delta report covers %d test points, entry has %d", len(delta.Idx), e.ntest)
	}
	dn := delta.GlobalN - e.n
	if dn <= 0 {
		return nil, fmt.Errorf("cluster: delta report GlobalN %d does not extend entry n %d", delta.GlobalN, e.n)
	}
	n2 := e.n + dn
	for t, l := range delta.Idx {
		if len(l) != dn || len(delta.Dist[t]) != dn {
			return nil, fmt.Errorf("cluster: delta test point %d has %d entries, want %d", t, len(l), dn)
		}
		for _, v := range l {
			if i := int(v &^ correctBit); i < e.n || i >= n2 {
				return nil, fmt.Errorf("cluster: delta test point %d: index %d outside appended range [%d,%d)", t, i, e.n, n2)
			}
		}
	}

	ne := &RankEntry{
		base:  e.base,
		ins:   make([]overlayTP, e.ntest),
		n:     n2,
		ntest: e.ntest,
		bytes: e.base.bytes,
	}
	for t := 0; t < e.ntest; t++ {
		var old overlayTP
		if e.ins != nil {
			old = e.ins[t]
		}
		ne.ins[t] = patchOne(e.base.dist[t], old, delta.Idx[t], delta.Dist[t])
		ne.bytes += int64(len(ne.ins[t].pos)) * 16
	}
	if len(ne.ins[0].pos) > e.flattenThreshold() {
		return ne.materialize(), nil
	}
	return ne, nil
}

// patchOne computes one test point's new overlay. The delta lists arrive
// rank-ordered by (distance, index) with every index above the existing
// range, so each element's child rank is its upper bound over the patched
// parent view (ties resolve to the existing side) plus the number of delta
// elements already placed.
func patchOne(baseDist []float64, old overlayTP, dIdx []uint32, dDist []float64) overlayTP {
	m := len(dIdx)
	// Child ranks in parent coordinates: qs[j] = upperBound(key_j) over the
	// parent view. The base half is a binary search; the old-overlay half is
	// a cursor, monotone because delta keys ascend.
	qs := make([]int, m)
	op := 0
	for j := 0; j < m; j++ {
		key := vec.DistKeyBits(dDist[j])
		ub := sort.Search(len(baseDist), func(i int) bool { return vec.DistKeyBits(baseDist[i]) > key })
		for op < len(old.dist) && vec.DistKeyBits(old.dist[op]) <= key {
			op++
		}
		qs[j] = ub + op
	}

	// New overlay: merge the repositioned old overlay with the delta
	// insertions, both ascending in child coordinates.
	nov := overlayTP{
		pos:  make([]int32, 0, len(old.pos)+m),
		idx:  make([]uint32, 0, len(old.pos)+m),
		dist: make([]float64, 0, len(old.pos)+m),
	}
	oi, j := 0, 0
	for j < m || oi < len(old.pos) {
		if j < m && (oi >= len(old.pos) || qs[j] <= int(old.pos[oi])) {
			nov.pos = append(nov.pos, int32(qs[j]+j))
			nov.idx = append(nov.idx, dIdx[j])
			nov.dist = append(nov.dist, dDist[j])
			j++
		} else {
			nov.pos = append(nov.pos, old.pos[oi]+int32(j))
			nov.idx = append(nov.idx, old.idx[oi])
			nov.dist = append(nov.dist, old.dist[oi])
			oi++
		}
	}
	return nov
}

// materialize splices the patched view into a fresh unpatched base.
func (e *RankEntry) materialize() *RankEntry {
	base := &rankLists{n: e.n, idx: make([][]uint32, e.ntest), dist: make([][]float64, e.ntest)}
	for t := 0; t < e.ntest; t++ {
		idx := make([]uint32, 0, e.n)
		dist := make([]float64, 0, e.n)
		e.splice(t, func(v uint32, d float64) {
			idx = append(idx, v)
			dist = append(dist, d)
		})
		base.idx[t] = idx
		base.dist[t] = dist
		base.bytes += int64(e.n) * 12
	}
	return &RankEntry{base: base, n: e.n, ntest: e.ntest, bytes: base.bytes}
}

// WithRemoved compacts the entry to the dataset with the given rows dropped:
// surviving rows keep their relative order and are renumbered densely, which
// is the registry's delta-removal semantics. removed must be sorted
// ascending, in range and duplicate-free (registry lineage guarantees this).
// The result is a fresh unpatched entry — removal renumbers every surviving
// index, so sharing the parent's arrays is impossible.
func (e *RankEntry) WithRemoved(removed []int) (*RankEntry, error) {
	n2 := e.n - len(removed)
	if n2 <= 0 {
		return nil, errors.New("cluster: removal leaves no training rows")
	}
	idmap := make([]int32, e.n)
	ri, next := 0, int32(0)
	for i := 0; i < e.n; i++ {
		if ri < len(removed) && removed[ri] == i {
			idmap[i] = -1
			ri++
		} else {
			idmap[i] = next
			next++
		}
	}
	if ri != len(removed) {
		return nil, fmt.Errorf("cluster: removal list %v not sorted unique in [0,%d)", removed, e.n)
	}
	base := &rankLists{n: n2, idx: make([][]uint32, e.ntest), dist: make([][]float64, e.ntest)}
	for t := 0; t < e.ntest; t++ {
		idx := make([]uint32, 0, n2)
		dist := make([]float64, 0, n2)
		e.splice(t, func(v uint32, d float64) {
			nid := idmap[v&^correctBit]
			if nid < 0 {
				return
			}
			idx = append(idx, uint32(nid)|(v&correctBit))
			dist = append(dist, d)
		})
		base.idx[t] = idx
		base.dist[t] = dist
		base.bytes += int64(n2) * 12
	}
	return &RankEntry{base: base, n: n2, ntest: e.ntest, bytes: base.bytes}, nil
}

// Values replays the cached ranking into a value vector: per test point in
// test order, core.AddValues walks the min(K*, n) prefix of the ranking into
// the sum, then the sum is averaged — the exact operation sequence of the
// coordinator merge and the single-node engine, hence bit-identical to both.
// An exact replay walks the whole ranking (K* = n).
func (e *RankEntry) Values(method string, k int, eps float64) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k = %d, want >= 1", k)
	}
	kStar := e.n
	switch method {
	case "exact":
	case "truncated":
		if eps <= 0 {
			return nil, fmt.Errorf("cluster: eps = %g, want > 0", eps)
		}
		kStar = min(core.KStar(k, eps), e.n)
	default:
		return nil, fmt.Errorf("cluster: method %q is not replayable (exact, truncated)", method)
	}
	acc := make([]float64, e.n)
	var buf []uint32
	for t := 0; t < e.ntest; t++ {
		buf = e.prefix(t, kStar, buf)
		core.AddValues(buf, e.n, k, kStar, acc)
	}
	inv := 1 / float64(e.ntest)
	for i := range acc {
		acc[i] *= inv
	}
	return acc, nil
}

// prefix returns the first m packed entries of test point t's child ranking,
// spliced into buf when the entry is patched.
func (e *RankEntry) prefix(t, m int, buf []uint32) []uint32 {
	b := e.base.idx[t]
	if e.ins == nil {
		return b[:m]
	}
	pos, idx := e.ins[t].pos, e.ins[t].idx
	if cap(buf) < m {
		buf = make([]uint32, 0, m)
	}
	buf = buf[:0]
	r, oi := 0, 0 // next child rank, overlay elements placed before it
	for ; oi < len(pos) && int(pos[oi]) < m; oi++ {
		buf = append(buf, b[r-oi:int(pos[oi])-oi]...)
		buf = append(buf, idx[oi])
		r = int(pos[oi]) + 1
	}
	return append(buf, b[r-oi:m-oi]...)
}

// LineageSource resolves a dataset ID to its recorded derivation; the
// registry implements it.
type LineageSource interface {
	LineageOf(id string) (registry.Lineage, bool)
}

// IncrementalStats snapshots the orchestrator counters, the "incremental"
// block of svserver's /statz and, under its prom names, of /metrics:
// FromScratch counts full rank-cache builds, Patches counts O(ΔN) lineage
// patches, Removals the O(N) compactions inside those patches, Replays
// every valuation served off a cache entry (including the one right after
// a build).
type IncrementalStats struct {
	FromScratch int64 `json:"from_scratch" prom:"svserver_incremental_fromscratch_total,Neighbor rankings built by a full scan."`
	Patches     int64 `json:"patches" prom:"svserver_incremental_patches_total,Neighbor rankings derived by an O(ΔN) append patch."`
	Removals    int64 `json:"removals" prom:"svserver_incremental_removals_total,Neighbor rankings derived by a removal remap."`
	Replays     int64 `json:"replays" prom:"svserver_incremental_replays_total,Valuations replayed from cached rankings."`
}

// Incremental serves valuations from the neighbor-rank cache, building
// entries from scratch on a miss unless the dataset's lineage points at a
// cached parent — then only the appended rows are scanned and patched in.
// Safe for concurrent use; concurrent misses on one key may race to build,
// which costs duplicated work, never wrong answers (entries are immutable
// and all candidates are bit-identical).
type Incremental struct {
	cache   *RankCache
	lineage LineageSource

	fromScratch atomic.Int64
	patches     atomic.Int64
	removals    atomic.Int64
	replays     atomic.Int64
}

// NewIncremental builds the orchestrator; lineage may be nil (every miss
// then builds from scratch).
func NewIncremental(cache *RankCache, lineage LineageSource) *Incremental {
	if cache == nil {
		cache = NewRankCache(0)
	}
	return &Incremental{cache: cache, lineage: lineage}
}

// Cache exposes the underlying rank cache (stats, pre-warming in tests).
func (inc *Incremental) Cache() *RankCache { return inc.cache }

// Stats snapshots the counters.
func (inc *Incremental) Stats() IncrementalStats {
	return IncrementalStats{
		FromScratch: inc.fromScratch.Load(),
		Patches:     inc.patches.Load(),
		Removals:    inc.removals.Load(),
		Replays:     inc.replays.Load(),
	}
}

// Fits reports whether req's from-scratch ranking, 12 bytes per (training
// row, test point) pair, fits the rank-cache budget (never when the budget
// is negative); one that does not would be built whole for one replay and
// dropped.
func (inc *Incremental) Fits(req Request) bool {
	return 12*int64(req.Train.N())*int64(req.Test.N()) <= inc.cache.budget
}

// Values evaluates req (same shape the sharded coordinator takes: exact or
// truncated, unweighted classification) against the rank cache, returning
// values bit-identical to Coordinator.Evaluate and the single-node Valuer.
func (inc *Incremental) Values(ctx context.Context, req Request) ([]float64, error) {
	if err := validateRequest(&req); err != nil {
		return nil, err
	}
	key := NewRankKey(req.TrainID, req.TestID, req.K, req.MetricName, req.Precision.String())
	e := inc.cache.Get(key)
	if e != nil && (e.n != req.Train.N() || e.ntest != req.Test.N()) {
		// A fingerprint collision or stale entry; rebuild rather than serve
		// values for the wrong shape.
		e = nil
	}
	if e == nil {
		var err error
		e, err = inc.buildEntry(ctx, &req, key)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inc.replays.Add(1)
	return e.Values(req.Method, req.K, req.Eps)
}

// buildEntry produces and caches the entry for req, patching from a cached
// parent when lineage allows, else scanning from scratch.
func (inc *Incremental) buildEntry(ctx context.Context, req *Request, key RankKey) (*RankEntry, error) {
	if e := inc.patchFromLineage(ctx, req); e != nil {
		inc.cache.Put(key, e)
		return e, nil
	}
	sr, err := ComputeShardReport(ctx, req.Train, req.Test, ShardParams{
		K:         req.K,
		Metric:    req.Metric,
		Precision: req.Precision,
		GlobalN:   req.Train.N(),
		BatchSize: req.BatchSize,
	})
	if err != nil {
		return nil, err
	}
	e, err := NewRankEntry(sr)
	if err != nil {
		return nil, err
	}
	inc.fromScratch.Add(1)
	inc.cache.Put(key, e)
	return e, nil
}

// patchFromLineage attempts the O(ΔN) path: the request's train ID has a
// recorded parent whose entry (same test set, same knobs) is cached. Any
// mismatch — no lineage, parent evicted, shapes off — returns nil and the
// caller scans from scratch; a failed delta scan also degrades to nil (the
// from-scratch path recomputes the same thing, just slower).
func (inc *Incremental) patchFromLineage(ctx context.Context, req *Request) *RankEntry {
	if inc.lineage == nil {
		return nil
	}
	lin, ok := inc.lineage.LineageOf(req.TrainID)
	if !ok || lin.Parent == "" {
		return nil
	}
	childN := req.Train.N()
	parentN := childN - lin.Appended + len(lin.Removed)
	if parentN <= 0 || parentN == len(lin.Removed) {
		return nil // parent fully removed: the "delta" is the whole dataset
	}
	pe := inc.cache.Get(NewRankKey(lin.Parent, req.TestID, req.K, req.MetricName, req.Precision.String()))
	if pe == nil || pe.n != parentN || pe.ntest != req.Test.N() {
		return nil
	}
	e := pe
	if len(lin.Removed) > 0 {
		var err error
		if e, err = e.WithRemoved(lin.Removed); err != nil {
			return nil
		}
		inc.removals.Add(1)
	}
	if lin.Appended > 0 {
		delta := sliceRows(req.Train, childN-lin.Appended, childN)
		sr, err := ComputeShardReport(ctx, delta, req.Test, ShardParams{
			K:            req.K,
			Metric:       req.Metric,
			Precision:    req.Precision,
			GlobalOffset: childN - lin.Appended,
			GlobalN:      childN,
			BatchSize:    req.BatchSize,
		})
		if err != nil {
			return nil
		}
		if e, err = e.PatchAppend(sr); err != nil {
			return nil
		}
	}
	inc.patches.Add(1)
	return e
}
