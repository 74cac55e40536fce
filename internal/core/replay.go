// The Theorem 1/2 recurrence over packed rankings: one base case, two
// traversals.
//
// Every exact and truncated valuation runs on one representation, the packed
// ranking: one uint32 per rank in ascending (distance, index) order, holding
// the training index with CorrectBit flagging label agreement (Pack). It is
// the codec of the cluster shard reports and the rank cache, so a single-node
// valuation, a coordinator merge and a cached replay all feed the same code.
// Over a ranking of m entries out of n training points the recurrence is
//
//	s_{α_m} = BaseValue(α_m, m, n, K)
//	s_{α_i} = s_{α_{i+1}} + (1[α_i correct] − 1[α_{i+1} correct])/K · min(K,i)/i
//
// with every unranked point at zero. The difference term depends only on
// (K, i) and the sign of the flip, so it comes from a shared per-K table
// (Terms), and the base case from BaseValue: a wrong base case or term can
// live in one place only. Two traversals step the recurrence:
//
//   - AddValues walks the ranking rank by rank, tail to head, without
//     branches: sv += diff·Terms[r] with diff ∈ {−1, 0, +1}, then
//     acc[index] += sv. It serves every ranking that is valued once: the
//     engine's exact and truncated kernels, the LSH and k-d valuers, the
//     cluster coordinator's merge, the rank cache's truncated replays and the
//     []int/[]bool adapters (ExactClassFromRankingInto,
//     TruncatedFromRankingInto).
//   - RunValues computes one value per run of equal correctness (the value
//     only changes where the bit flips, ~2·p·(1−p)·N times at correctness
//     density p), and GatherRuns streams the run values into the accumulator
//     through an index→run table (RunOf), walking acc in index order instead
//     of rank order. It serves the rank cache's full replays, which build the
//     table once per entry and reuse it on every replay.
//
// Why two. The gather replaces the rank-order scatter's cold accumulator line
// per element with a sequential pass, about 3× faster on cached full
// replays, but it needs the runOf table, and building that table for a
// ranking used once is itself a rank-order scatter. Measured per test point
// on a sorted ranking at N=1e5, K=5 (2-vCPU Intel Xeon host, median of three
// 300-iteration runs, correctness density 0.1 / 0.5 / 0.9): packing and
// walking with AddValues took 0.70 / 0.61 / 0.58 ms, while packing, finding
// flips, RunValues and a per-run scatter took 1.21 / 2.60 / 1.18 ms. So the
// choice is by whether a runOf table is cached, not by the method.
//
// Both traversals give the same bits. At a rank without a flip diff is 0 and
// sv + (+0) = sv, because sv is never −0 (an IEEE-754 sum is −0 only when
// both operands are); and one table serves both signs because negation is
// exact: −(1/K·m/i) has the bits of (−1)/K·m/i.
package core

import (
	"sync"
	"unsafe"
)

// CorrectBit flags a packed ranking entry whose training label matches the
// test point's. It caps usable training indices at 2³¹, the same ceiling the
// dataset and shard-report codecs enforce.
const CorrectBit = uint32(1) << 31

// Pack packs a training index and its correctness flag into one packed
// ranking entry.
func Pack(idx int, correct bool) uint32 {
	v := uint32(idx)
	if correct {
		v |= CorrectBit
	}
	return v
}

// termsMaxK bounds how many distinct K tables are retained; requests churn
// through at most a handful of K values in practice, and the bound keeps a
// hostile K sequence from growing the cache without limit.
const termsMaxK = 8

var (
	termsMu  sync.Mutex
	termsByK = make(map[int][]float64)
)

// Terms returns the flip-crossing term table for k, valid for ranks up to at
// least n: Terms(k, n)[i] is the recurrence's difference term at 1-based rank
// i for an upward correctness flip (nearer point correct),
// 1/K · min(K,i)/i evaluated in that operation order; a downward flip adds
// its negation. Tables grow on demand and are shared across goroutines; the
// returned slice is immutable.
func Terms(k, n int) []float64 {
	termsMu.Lock()
	defer termsMu.Unlock()
	t := termsByK[k]
	if len(t) > n {
		return t
	}
	if len(termsByK) >= termsMaxK {
		for ok := range termsByK {
			if ok != k {
				delete(termsByK, ok)
				break
			}
		}
	}
	nt := make([]float64, n+1)
	copy(nt, t)
	for i := max(len(t), 1); i <= n; i++ {
		minKi := float64(min(k, i))
		nt[i] = 1.0 / float64(k) * minKi / float64(i)
	}
	termsByK[k] = nt
	return nt
}

// BaseValue is the recurrence's base case: the value of last, the final
// entry of a ranking of m entries out of n training points. When the ranking
// covers all n points it is Theorem 1's 1[correct]/max(n,k) — Eq. (6)
// assumes n ≥ k, and in general the farthest point is pivotal for the
// min(k,n) coalition sizes below k, giving 1[correct]·min(n,k)/(n·k). A
// shorter ranking (Theorem 2's truncation at K*, or an ANN retrieval) ends
// at the zero base.
func BaseValue(last uint32, m, n, k int) float64 {
	if m < n || last&CorrectBit == 0 {
		return 0
	}
	return 1 / float64(max(n, k))
}

// AddValues runs the recurrence over the first min(len(l), n, kStar) entries
// of the packed ranking l and adds each ranked point's value into acc (length
// at least n); unranked points get nothing, which is their zero value. The
// ranking must list distinct training indices below len(acc). Pass kStar = n
// for Theorem 1's exact values and kStar = KStar(k, eps) for Theorem 2's
// truncation. Into a zeroed acc it writes the values themselves; into a
// running sum it is the engine's ordered reduce, one test point at a time.
func AddValues(l []uint32, n, k, kStar int, acc []float64) {
	m := min(len(l), n, kStar)
	if m <= 0 {
		return
	}
	l = l[:m]
	terms := Terms(k, m)[:m]
	sv := BaseValue(l[m-1], m, n, k)
	acc[l[m-1]&^CorrectBit] += sv
	for r := m - 1; r >= 1; r-- {
		cur := l[r-1]
		diff := float64(int32(cur>>31) - int32(l[r]>>31))
		sv += diff * terms[r]
		acc[cur&^CorrectBit] += sv
	}
}

// FlipsOfPacked returns the ascending ranks r in (0, len(l)) at which the
// correctness bit of the packed ranking changes between ranks r−1 and r.
func FlipsOfPacked(l []uint32) []int32 {
	var fl []int32
	for r := 1; r < len(l); r++ {
		if (l[r-1]^l[r])&CorrectBit != 0 {
			fl = append(fl, int32(r))
		}
	}
	return fl
}

// RunValues evaluates the recurrence once per run over a full ranking of n
// entries: out[r] receives the value shared by every rank in run r, where run
// r spans ranks [flips[r-1], flips[r]) (run len(flips) is the tail) and last
// is the packed entry at rank n−1. The sv sequence — BaseValue, then one ±
// Terms entry per flip walking tail to head — is the one AddValues steps, so
// the values are bit-identical; the flip direction needs no ranking lookup
// because correctness bits strictly alternate across runs (a flip is, by
// construction, a bit change).
func RunValues(flips []int32, last uint32, n, k int, out []float64) {
	terms := Terms(k, n)
	sv := BaseValue(last, n, n, k)
	out[len(flips)] = sv
	bit := last&CorrectBit != 0
	for fi := len(flips) - 1; fi >= 0; fi-- {
		bit = !bit // bit of run fi, which the crossing's sign reads
		term := terms[flips[fi]]
		if !bit {
			term = -term
		}
		sv += term
		out[fi] = sv
	}
}

// GatherRuns adds each element's run value into the accumulator: for every
// training index i, acc[i] += runvals[runOf[i]]. acc is walked sequentially
// and runvals is small enough to sit in cache, where a rank-order walk hits a
// cold accumulator line per element. Bit-identical to AddValues because each
// index appears exactly once per ranking — the adds commute across distinct
// slots — and a +0 add (zero-valued runs) preserves every accumulator bit
// pattern the recurrence can produce. Covers indices [0, len(runOf)); acc may
// be longer (a patched replay's appended tail is added separately). Caller
// guarantees len(runOf) <= len(acc) and every runOf entry < len(runvals).
func GatherRuns(runOf []uint32, runvals, acc []float64) {
	n := len(runOf)
	if n == 0 {
		return
	}
	rp := unsafe.Pointer(&runOf[0])
	vp := unsafe.Pointer(&runvals[0])
	ap := unsafe.Pointer(&acc[0])
	for i := 0; i < n; i++ {
		r := *(*uint32)(unsafe.Add(rp, uintptr(i)*4))
		*(*float64)(unsafe.Add(ap, uintptr(i)*8)) += *(*float64)(unsafe.Add(vp, uintptr(r)*8))
	}
}

// RunOf builds the index→run-id table GatherRuns consumes from a packed
// ranking and its flip list: runOf[index at rank r] = number of flips at or
// below r. The table depends only on the ranking, so cache entries build it
// once and reuse it every replay.
func RunOf(l []uint32, flips []int32, runOf []uint32) {
	fi := 0
	for r, v := range l {
		for fi < len(flips) && int(flips[fi]) <= r {
			fi++
		}
		runOf[v&^CorrectBit] = uint32(fi)
	}
}
