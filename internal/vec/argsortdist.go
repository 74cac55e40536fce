package vec

import (
	"math"
	"math/bits"
	"sync"
)

// ArgsortDistInto fills idx (reallocated only when too short) with
// 0..len(dist)-1 ordered ascending by (dist, index) — the α ordering of
// Theorem 1 — and returns it. It is the total-order primitive of the exact
// Shapley recursion and the hot half of the per-test-point cost, so it is
// a bucket sort on the order-monotone bit pattern of each distance
// (DistSorter.PackedInto) rather than a comparison sort: a few linear
// passes versus O(N log N) comparisons through interfaces.
//
// The ordering matches a stable comparison sort on the values exactly,
// for every float64 input: -0 and +0 compare equal and fall back to index
// order, and NaN sorts after +Inf (with NaN ties again by index). Small
// inputs (< radixMinN) use an insertion sort on the identical key
// transform, so the order never depends on input size.
func ArgsortDistInto(idx []int, dist []float64) []int {
	ds := distSorterPool.Get().(*DistSorter)
	idx = ds.ArgsortInto(idx, dist)
	distSorterPool.Put(ds)
	return idx
}

var distSorterPool = sync.Pool{New: func() any { return new(DistSorter) }}

// DistSorter owns the buffers of the ArgsortDistInto ordering. Callers
// that sort on every test point (the engine's per-worker Scratch) hold one
// instead of using the package-level pool: the buffers then live exactly
// as long as the worker, with no cross-worker pool traffic — and no
// reallocation churn under the race detector, whose sync.Pool deliberately
// drops a fraction of Puts. The zero value is ready to use.
//
// The sort makes one MSD pass over the top varying bits of
// DistKeyBits(d) − min: with db = clamp(⌊log₂ N⌋, 8, 16) bits of digit the
// N keys fall into at most 2^db buckets, so walking the histogram never
// dominates and a bucket of near-uniform data holds one or two keys. The
// keys and their payloads are scattered stably, so equal keys keep
// ascending index order (the α tie rule), and one insertion sort over the
// whole array then finishes every bucket without crossing a bucket
// boundary. A bucket above maxBucket entries — a tight cluster, the
// finite values beside a +Inf or NaN outlier — is sorted the same way on
// its own key range first (an all-equal one is already in order), so
// skewed input costs a few more linear passes instead of going quadratic:
// each level narrows the key range by at least 8 bits, so no key is
// scattered more than 8 times.
type DistSorter struct {
	keys, tmpKeys []uint64
	pay, out      []uint32
	counts        []uint32
	stack         [][2]int
}

// ArgsortInto is ArgsortDistInto using the sorter's owned scratch: the
// packed sort with offset 0 and no flags, widened to ints.
func (ds *DistSorter) ArgsortInto(idx []int, dist []float64) []int {
	ds.out = ds.PackedInto(ds.out, dist, nil, 0, 0)
	idx = resize(idx, len(dist))
	for r, p := range ds.out {
		idx[r] = int(p)
	}
	return idx
}

// PackedInto fills dst (reallocated only when too short) with the
// ArgsortDistInto ordering of dist in packed form and returns it: entry r
// is uint32(offset + i) for the r-th nearest index i, with flag set when
// correct[i]. correct is either nil (no flags) or as long as dist, and
// offset + len(dist) must stay below flag (below 2^32 when flag is 0). It
// builds the packed ranking of the Shapley recursion in the same passes
// that sort it — offset 0 for a single node, the shard's global offset for
// a cluster shard report.
func (ds *DistSorter) PackedInto(dst []uint32, dist []float64, correct []bool, offset int, flag uint32) []uint32 {
	n := len(dist)
	dst = resize(dst, n)
	if n == 0 {
		return dst
	}
	// The small path fills dst and insertion-sorts it in place; the bucket
	// path fills the sorter's buffers and scatters them into dst.
	keys, pay := resize(ds.tmpKeys, n), dst
	if n >= radixMinN {
		keys, pay = resize(ds.keys, n), resize(ds.pay, n)
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	base := uint32(offset)
	for i, d := range dist {
		k := DistKeyBits(d)
		keys[i] = k
		lo = min(lo, k)
		hi = max(hi, k)
		pay[i] = base + uint32(i)
	}
	if correct != nil {
		for i, c := range correct[:n] {
			pay[i] |= flag * b2u32(c)
		}
	}
	if n < radixMinN {
		ds.tmpKeys = keys
		insertionSortKeys(keys, dst)
		return dst
	}
	ds.keys, ds.pay = keys, pay
	if lo == hi {
		copy(dst, pay) // one key: index order
		return dst
	}
	ds.tmpKeys = resize(ds.tmpKeys, n)
	ds.sortInto(keys, pay, ds.tmpKeys, dst, lo, hi)
	return dst
}

// SortKeys sorts the (keys[i], pay[i]) pairs by key, in place, with the
// bucket sort of PackedInto; pairs with equal keys keep their input order.
// It serves raw 64-bit keys, such as the LSH tables' bucket hashes, that
// need no DistKeyBits transform.
func (ds *DistSorter) SortKeys(keys []uint64, pay []uint32) {
	n := len(keys)
	if n < radixMinN {
		insertionSortKeys(keys, pay)
		return
	}
	lo, hi := minMax(keys)
	if lo == hi {
		return
	}
	ds.keys, ds.pay = resize(ds.keys, n), resize(ds.pay, n)
	copy(ds.keys, keys)
	copy(ds.pay, pay[:n])
	ds.sortInto(ds.keys, ds.pay, keys, pay, lo, hi)
}

// sortInto sorts the (srcK, srcP) pairs, whose keys lie in [lo, hi] with
// lo < hi, stably into (dstK, dstP); the source arrays end as scratch.
func (ds *DistSorter) sortInto(srcK []uint64, srcP []uint32, dstK []uint64, dstP []uint32, lo, hi uint64) {
	ds.stack = ds.stack[:0]
	ds.scatter(srcK, srcP, dstK, dstP, lo, hi, 0)
	// Each pending bucket's entries sit in (dstK, dstP); the source arrays
	// are free scratch over the same range.
	for len(ds.stack) > 0 {
		b := ds.stack[len(ds.stack)-1]
		ds.stack = ds.stack[:len(ds.stack)-1]
		bk, bp := dstK[b[0]:b[1]], dstP[b[0]:b[1]]
		blo, bhi := minMax(bk)
		if blo == bhi {
			continue
		}
		sk, sp := srcK[b[0]:b[1]], srcP[b[0]:b[1]]
		copy(sk, bk)
		copy(sp, bp)
		ds.scatter(sk, sp, bk, bp, blo, bhi, b[0])
	}
	insertionSortKeys(dstK, dstP)
}

// radixMinN is the input size below which the bucket machinery (histogram
// zeroing, scratch traffic) loses to a plain insertion sort.
const radixMinN = 64

// maxBucket is the largest bucket left to the final insertion sort; a
// larger one is bucket-sorted again on its own key range.
const maxBucket = 64

// DistKeyBits maps v onto bits whose unsigned order equals the (v, ties
// pending) comparison order for all floats: negative values flip entirely,
// non-negative values set the sign bit. Adding 0 first normalizes -0 to +0
// so the two zeros map to one key and ties resolve by index. It is exported
// as the comparison key for anything that must reproduce this package's
// total order externally — the cluster coordinator's k-way neighbor merge
// orders shard-local lists by (DistKeyBits(dist), index) so the merged
// ranking equals a single ArgsortDistInto over the unsharded distances.
func DistKeyBits(v float64) uint64 {
	b := math.Float64bits(v + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// scatter distributes the (srcK, srcP) pairs, whose keys lie in [lo, hi]
// with lo < hi, stably over the top varying bits of key − lo into (dstK,
// dstP), and queues every bucket above maxBucket entries (as a range
// offset by base) for another pass.
func (ds *DistSorter) scatter(srcK []uint64, srcP []uint32, dstK []uint64, dstP []uint32, lo, hi uint64, base int) {
	db := min(max(bits.Len(uint(len(srcK)))-1, 8), 16)
	shift := uint(max(bits.Len64(hi-lo)-db, 0))
	counts := resize(ds.counts, int((hi-lo)>>shift)+1)
	ds.counts = counts
	clear(counts)
	for _, k := range srcK {
		counts[(k-lo)>>shift]++
	}
	var sum uint32
	for b, c := range counts {
		counts[b] = sum
		if c > maxBucket {
			ds.stack = append(ds.stack, [2]int{base + int(sum), base + int(sum+c)})
		}
		sum += c
	}
	dstK, dstP = dstK[:len(srcK)], dstP[:len(srcK)]
	for i, k := range srcK {
		b := (k - lo) >> shift
		o := counts[b]
		counts[b] = o + 1
		dstK[o] = k
		dstP[o] = srcP[i]
	}
}

// insertionSortKeys sorts the (keys, pay) pairs stably by key. After a
// scatter every key is already inside its bucket's range, so no entry
// moves past its bucket and the cost is linear plus the in-bucket
// inversions.
func insertionSortKeys(keys []uint64, pay []uint32) {
	pay = pay[:len(keys)]
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		if keys[i-1] <= k {
			continue
		}
		p := pay[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
			pay[j] = pay[j-1]
		}
		keys[j] = k
		pay[j] = p
	}
}

// b2u32 is 1 for true, 0 for false, without a branch that random
// correctness flags would mispredict.
func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func minMax(keys []uint64) (lo, hi uint64) {
	lo, hi = keys[0], keys[0]
	for _, k := range keys[1:] {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	return lo, hi
}

// resize returns buf resized to n, reallocated only when too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
