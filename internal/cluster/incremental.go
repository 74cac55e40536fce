// Incremental delta valuation: cached neighbor rankings patched in O(ΔN).
//
// A from-scratch valuation spends almost all its time producing, per test
// point, the training points sorted by distance; the Shapley recursion over
// that ranking is comparatively free. A RankEntry caches exactly that
// product — each test point's packed (index, correctness) list in rank
// order, its distances, its correctness-flip positions and the index→run
// table the run-value gather consumes — so re-valuing an unchanged dataset
// is a pure replay, and re-valuing after a delta costs only the ΔN new rows:
//
//   - Append: distances of the ΔN new points against every test point come
//     from a miniature shard scan (the same GEMV norm-precompute kernels the
//     cluster workers run), each new point's rank is found by binary search
//     on the cached ordering, and the result is recorded as an insertion
//     overlay on the parent's arrays — nothing of the O(N) base is copied.
//     Flip positions are patched by a linear merge, mostly constant-shift
//     block copies.
//   - Remove: the surviving rows are compacted into a fresh base with
//     indices remapped (O(N), but removal changes every surviving index, so
//     there is no smaller honest representation).
//
// Replays run the core recurrence over the patched view, ordered by the
// engine's exact (DistKeyBits, index) key: full replays (exact, or truncated
// with K* >= N) as the run-value gather (core.RunValues + core.GatherRuns,
// gatherPatched for patched entries), truncated replays as core.AddValues
// over the K* prefix, spliced first when the entry is patched. The values are
// bit-identical to a from-scratch run on the post-delta dataset — the
// equivalence the incremental tests pin with Float64bits comparisons.
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
// list, distance list, flip list and index→run-id table per test point, all
// of length n (runOf is indexed by training index, the rest by rank). runOf
// is what lets full replays run as a streaming gather — acc walked in index
// order against a cache-resident per-run value table — instead of the
// rank-order scatter, which costs a cold accumulator line per element.
type rankLists struct {
	n     int
	idx   [][]uint32
	dist  [][]float64
	flips [][]int32
	runOf [][]uint32
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
	flips [][]int32   // child-coordinate flips; aliases base.flips when unpatched
	n     int
	ntest int
	bytes int64
}

// Bytes reports the entry's accounted size. A patched entry counts its
// shared base in full — conservative double-counting that keeps the cache
// budget an upper bound on real memory.
func (e *RankEntry) Bytes() int64 { return e.bytes }

// N returns the training rows covered; NTest the test points.
func (e *RankEntry) N() int     { return e.n }
func (e *RankEntry) NTest() int { return e.ntest }

// Patched reports whether the entry carries an insertion overlay.
func (e *RankEntry) Patched() bool { return e.ins != nil }

// NewRankEntry adopts a full single-shard report (Limit 0, offset 0) as a
// cache entry. Every list must cover all GlobalN training rows — partial
// reports cannot be patched or replayed exactly — and every packed index is
// range-checked here once, which is what licenses the unchecked indexing of
// core.GatherRuns over the runOf tables built here.
func NewRankEntry(sr *ShardReport) (*RankEntry, error) {
	n := sr.GlobalN
	if n <= 0 || len(sr.Idx) == 0 {
		return nil, errors.New("cluster: rank entry needs a non-empty report")
	}
	if len(sr.Idx) != len(sr.Dist) {
		return nil, fmt.Errorf("cluster: report has %d index lists, %d distance lists", len(sr.Idx), len(sr.Dist))
	}
	base := &rankLists{
		n:     n,
		idx:   sr.Idx,
		dist:  sr.Dist,
		flips: make([][]int32, len(sr.Idx)),
		runOf: make([][]uint32, len(sr.Idx)),
	}
	for t, l := range sr.Idx {
		if len(l) != n || len(sr.Dist[t]) != n {
			return nil, fmt.Errorf("cluster: rank entry needs full rankings: test point %d has %d of %d entries", t, len(l), n)
		}
		for _, v := range l {
			if int(v&^correctBit) >= n {
				return nil, fmt.Errorf("cluster: test point %d: packed index out of range", t)
			}
		}
		base.flips[t] = core.FlipsOfPacked(l)
		base.runOf[t] = make([]uint32, n)
		core.RunOf(l, base.flips[t], base.runOf[t])
		base.bytes += int64(len(l))*16 + int64(len(base.flips[t]))*4
	}
	return &RankEntry{
		base:  base,
		flips: base.flips,
		n:     n,
		ntest: len(sr.Idx),
		bytes: base.bytes,
	}, nil
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
// the spliced ranking into a fresh base: replay cost degrades gently with
// overlay size, but each overlay element costs a branch per replay forever,
// so past ~an eighth of the base the O(N) copy amortizes.
func (e *RankEntry) flattenThreshold() int {
	return max(1024, e.base.n/8)
}

// PatchAppend merges a delta report — the ΔN appended rows ranked against
// the same test points, with global offset equal to the parent's n — into a
// new entry for the grown dataset. The parent's base arrays are shared; only
// overlays and flip lists are built, so the cost is O(ΔN log N + flips).
func (e *RankEntry) PatchAppend(delta *ShardReport) (*RankEntry, error) {
	if delta == nil || len(delta.Idx) != e.ntest || len(delta.Dist) != e.ntest {
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
		flips: make([][]int32, e.ntest),
		n:     n2,
		ntest: e.ntest,
		bytes: e.base.bytes,
	}
	for t := 0; t < e.ntest; t++ {
		var old *overlayTP
		if e.ins != nil {
			old = &e.ins[t]
		} else {
			old = &overlayTP{}
		}
		nov, nfl := patchOne(e.base.dist[t], old, e.flips[t], delta.Idx[t], delta.Dist[t], e, t)
		ne.ins[t] = nov
		ne.flips[t] = nfl
		ne.bytes += int64(len(nov.pos))*16 + int64(len(nfl))*4
	}
	if len(ne.ins[0].pos) > e.flattenThreshold() {
		return ne.materialize(), nil
	}
	return ne, nil
}

// patchOne computes one test point's new overlay and child-coordinate flips.
// The delta lists arrive rank-ordered by (distance, index) with every index
// above the existing range, so each element's child rank is its upper bound
// over the patched parent view (ties resolve to the existing side) plus the
// number of delta elements already placed.
func patchOne(baseDist []float64, old *overlayTP, oldFlips []int32, dIdx []uint32, dDist []float64, e *RankEntry, t int) (overlayTP, []int32) {
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

	return nov, mergeFlips(oldFlips, qs, dIdx, e, t)
}

// mergeFlips derives the child's flip list from the parent's without
// rescanning the ranking: parent flips shift by the number of insertions
// placed below them (block copies with a constant shift), a parent flip
// exactly at an insertion point is dropped (its pair is no longer adjacent),
// and each insertion group contributes boundary and intra-group flips from
// direct bit comparisons. qs must be ascending parent-coordinate insertion
// points for the packed delta elements dIdx.
func mergeFlips(f1 []int32, qs []int, dIdx []uint32, e *RankEntry, t int) []int32 {
	m := len(qs)
	n1 := e.n
	out := make([]int32, 0, len(f1)+2*m+2)
	dbit := func(j int) bool { return dIdx[j]&correctBit != 0 }
	fi := 0
	for j := 0; j < m; {
		q := qs[j]
		j2 := j
		for j2+1 < m && qs[j2+1] == q {
			j2++
		}
		for fi < len(f1) && int(f1[fi]) < q {
			out = append(out, f1[fi]+int32(j))
			fi++
		}
		if fi < len(f1) && int(f1[fi]) == q {
			fi++ // parent pair (q−1, q) broken by this group
		}
		if q >= 1 && e.bitAt(t, q-1) != dbit(j) {
			out = append(out, int32(q+j))
		}
		for x := j; x < j2; x++ {
			if dbit(x) != dbit(x+1) {
				out = append(out, int32(q+x+1))
			}
		}
		if q <= n1-1 && dbit(j2) != e.bitAt(t, q) {
			out = append(out, int32(q+j2+1))
		}
		j = j2 + 1
	}
	for fi < len(f1) {
		out = append(out, f1[fi]+int32(m))
		fi++
	}
	return out
}

// bitAt returns the correctness bit of test point t's rank-p element in this
// entry's (parent) coordinates, overlay-aware.
func (e *RankEntry) bitAt(t, p int) bool {
	if e.ins != nil {
		ov := &e.ins[t]
		i := sort.Search(len(ov.pos), func(i int) bool { return int(ov.pos[i]) >= p })
		if i < len(ov.pos) && int(ov.pos[i]) == p {
			return ov.idx[i]&correctBit != 0
		}
		return e.base.idx[t][p-i]&correctBit != 0
	}
	return e.base.idx[t][p]&correctBit != 0
}

// materialize splices the patched view into a fresh unpatched base. Flip
// lists are already in child coordinates and carry over by reference.
func (e *RankEntry) materialize() *RankEntry {
	base := &rankLists{n: e.n, idx: make([][]uint32, e.ntest), dist: make([][]float64, e.ntest),
		flips: e.flips, runOf: make([][]uint32, e.ntest)}
	for t := 0; t < e.ntest; t++ {
		idx := make([]uint32, 0, e.n)
		dist := make([]float64, 0, e.n)
		e.splice(t, func(v uint32, d float64) {
			idx = append(idx, v)
			dist = append(dist, d)
		})
		base.idx[t] = idx
		base.dist[t] = dist
		base.runOf[t] = make([]uint32, e.n)
		core.RunOf(idx, e.flips[t], base.runOf[t])
		base.bytes += int64(e.n)*16 + int64(len(e.flips[t]))*4
	}
	return &RankEntry{base: base, flips: base.flips, n: e.n, ntest: e.ntest, bytes: base.bytes}
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
	base := &rankLists{n: n2, idx: make([][]uint32, e.ntest), dist: make([][]float64, e.ntest),
		flips: make([][]int32, e.ntest), runOf: make([][]uint32, e.ntest)}
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
		base.flips[t] = core.FlipsOfPacked(idx)
		base.runOf[t] = make([]uint32, n2)
		core.RunOf(idx, base.flips[t], base.runOf[t])
		base.bytes += int64(n2)*16 + int64(len(base.flips[t]))*4
	}
	return &RankEntry{base: base, flips: base.flips, n: n2, ntest: e.ntest, bytes: base.bytes}, nil
}

// Values replays the cached ranking into a value vector: per test point in
// test order, add the recursion's values into the sum, then average — the
// exact operation sequence of the coordinator merge and the single-node
// engine, hence bit-identical to both. A truncated replay walks each test
// point's K* prefix with core.AddValues; a full replay (exact, or truncated
// with K* >= n, where the two coincide) is a run-value gather: one sv walk
// over the flips (core.RunValues), then a streaming pass adding each index's
// run value from the cached runOf table.
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
		kStar = core.KStar(k, eps)
	default:
		return nil, fmt.Errorf("cluster: method %q is not replayable (exact, truncated)", method)
	}
	acc := make([]float64, e.n)
	if kStar < e.n {
		var buf []uint32
		for t := 0; t < e.ntest; t++ {
			buf = e.prefix(t, kStar, buf)
			core.AddValues(buf, e.n, k, kStar, acc)
		}
	} else {
		// Run-value tables sized to the largest run counts across test
		// points; bv doubles as the base-run table of patched replays.
		maxB, maxC := 0, 0
		for t := 0; t < e.ntest; t++ {
			maxB = max(maxB, len(e.base.flips[t])+1)
			maxC = max(maxC, len(e.flips[t])+1)
		}
		bv := make([]float64, maxB)
		var crv []float64
		if e.ins != nil {
			crv = make([]float64, maxC)
		}
		for t := 0; t < e.ntest; t++ {
			if e.ins != nil {
				e.gatherPatched(t, k, bv, crv, acc)
				continue
			}
			fl := e.base.flips[t]
			rv := bv[:len(fl)+1]
			core.RunValues(fl, e.base.idx[t][e.n-1], e.n, k, rv)
			core.GatherRuns(e.base.runOf[t], rv, acc)
		}
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
	buf = buf[:0]
	r, oi := 0, 0 // next child rank, overlay elements placed before it
	for ; oi < len(pos) && int(pos[oi]) < m; oi++ {
		buf = append(buf, b[r-oi:int(pos[oi])-oi]...)
		buf = append(buf, idx[oi])
		r = int(pos[oi]) + 1
	}
	return append(buf, b[r-oi:m-oi]...)
}

// gatherPatched replays a patched test point without materializing the
// spliced ranking: run values are computed in child coordinates, then
// mapped back onto the parent's run structure so the O(N) pass can still be
// the streaming runOf gather. Child runs and base runs tile the same
// element sequence, so walking both flip lists in lockstep assigns each
// fully-covered base run its child value; base runs split by an insertion
// (at most a couple per appended point) keep value zero in the table — a
// bit-free +0 in the gather — and their elements are scatter-added
// directly, as are the overlay elements themselves. The sv sequence and the
// one-add-per-element contract match core.AddValues over the spliced
// ranking, so the result is bit-identical.
func (e *RankEntry) gatherPatched(t, k int, bv, crv, acc []float64) {
	ov := &e.ins[t]
	m := len(ov.pos)
	cf := e.flips[t]      // child-coordinate flips
	bf := e.base.flips[t] // base-coordinate flips
	bl := e.base.idx[t]
	n1 := e.base.n

	var tail uint32
	if m > 0 && int(ov.pos[m-1]) == e.n-1 {
		tail = ov.idx[m-1]
	} else {
		tail = bl[e.n-1-m]
	}
	cv := crv[:len(cf)+1]
	core.RunValues(cf, tail, e.n, k, cv)

	// Every base run is entered exactly once with bpos at its start (the b
	// ranges tile the base), so rv needs no up-front clear: full coverage
	// assigns the run's value, and a split run is zeroed on first touch.
	rv := bv[:len(bf)+1]
	oi := 0      // overlay cursor
	bfi := 0     // base run cursor
	bpos := 0    // base rank cursor
	crStart := 0 // child rank where the current child run begins
	for cr := 0; cr <= len(cf); cr++ {
		crEnd := e.n
		if cr < len(cf) {
			crEnd = int(cf[cr])
		}
		v := cv[cr]
		nins := 0
		for oi < m && int(ov.pos[oi]) < crEnd {
			if v != 0 {
				acc[ov.idx[oi]&^correctBit] += v
			}
			oi++
			nins++
		}
		// The run's base elements occupy base ranks [bpos, b).
		b := bpos + (crEnd - crStart) - nins
		for bpos < b {
			runStart, runEnd := 0, n1
			if bfi > 0 {
				runStart = int(bf[bfi-1])
			}
			if bfi < len(bf) {
				runEnd = int(bf[bfi])
			}
			if bpos == runStart && b >= runEnd {
				rv[bfi] = v // base run fully inside one child run
				bpos = runEnd
				bfi++
				continue
			}
			if bpos == runStart {
				rv[bfi] = 0 // split base run: the gather must add a bit-free +0
			}
			seg := min(b, runEnd) // ...and its pieces are added directly
			if v != 0 {
				for _, pv := range bl[bpos:seg] {
					acc[pv&^correctBit] += v
				}
			}
			bpos = seg
			if seg == runEnd {
				bfi++
			}
		}
		crStart = crEnd
	}
	core.GatherRuns(e.base.runOf[t], rv, acc)
}

// LineageSource resolves a dataset ID to its recorded derivation; the
// registry implements it.
type LineageSource interface {
	LineageOf(id string) (registry.Lineage, bool)
}

// IncrementalStats snapshots the orchestrator counters: FromScratch counts
// full rank-cache builds, Patches counts O(ΔN) lineage patches, Removals the
// O(N) compactions inside those patches, Replays every valuation served off
// a cache entry (including the one right after a build).
type IncrementalStats struct {
	FromScratch int64 `json:"from_scratch"`
	Patches     int64 `json:"patches"`
	Removals    int64 `json:"removals"`
	Replays     int64 `json:"replays"`
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
