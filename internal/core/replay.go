// The Theorem 1/2 recurrence over packed rankings: one base case, one walker.
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
// live in one place only. AddValues steps the recurrence for every caller:
// the engine's exact and truncated kernels, the LSH and k-d valuers, the
// cluster coordinator's merge, the rank cache's replays and the []int/[]bool
// adapters (ExactClassFromRankingInto, TruncatedFromRankingInto).
//
// AddValues walks the ranking rank by rank, tail to head, without branches:
// sv += diff·Terms[r] with diff ∈ {−1, 0, +1}, then acc[index] += sv. At a
// rank without a flip diff is 0 and sv + (+0) = sv, because sv is never −0
// (an IEEE-754 sum is −0 only when both operands are); and one table serves
// both signs because negation is exact: −(1/K·m/i) has the bits of
// (−1)/K·m/i.
package core

import "sync"

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
