package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randPacked builds a packed ranking of length m over [0, n): the first m
// entries of a random permutation, each flagged correct with probability p.
// m < n is the shape an ANN retrieval hands the recurrence.
func randPacked(rng *rand.Rand, n, m int, p float64) []uint32 {
	l := make([]uint32, m)
	for r, id := range rng.Perm(n)[:m] {
		l[r] = Pack(id, rng.Float64() < p)
	}
	return l
}

// unpackRanking splits a packed list into the (ranking, correct) pair the
// reference recursion takes.
func unpackRanking(l []uint32) ([]int, []bool) {
	ranking := make([]int, len(l))
	correct := make([]bool, len(l))
	for r, v := range l {
		ranking[r] = int(v &^ CorrectBit)
		correct[r] = v&CorrectBit != 0
	}
	return ranking, correct
}

// refValues is a rank-by-rank transcription of Theorems 1 and 2, kept
// independent of Terms, BaseValue and AddValues: the first
// m = min(len(ranking), n, kStar) ranks are valued, starting from
// 1[correct]/max(n,k) when they cover all n points and from zero otherwise;
// every other point is zero.
func refValues(ranking []int, correct []bool, n, k, kStar int) []float64 {
	sv := make([]float64, n)
	m := min(len(ranking), n, kStar)
	if m == 0 {
		return sv
	}
	if m == n {
		sv[ranking[m-1]] = ind(correct[m-1]) / float64(max(n, k))
	}
	for r := m - 1; r >= 1; r-- {
		i := r // 1-based rank of the nearer point is r, since ranks are r and r+1
		cur, next := ranking[r-1], ranking[r]
		minKi := float64(min(k, i))
		sv[cur] = sv[next] + (ind(correct[r-1])-ind(correct[r]))/float64(k)*minKi/float64(i)
	}
	return sv
}

func requireSameBits(t *testing.T, want, got []float64, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
			t.Fatalf("%s: acc[%d] = %x, want %x", what, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// AddValues, summed over several test points the way the engine's ordered
// reduce sums them, must match the reference bit for bit over full and
// partial rankings, every truncation depth and correctness density, and k
// on both sides of n.
func TestAddValuesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 7, 64, 257, 1000} {
		for _, m := range []int{n, n/2 + 1} {
			for _, p := range []float64{0, 0.1, 0.5, 1} {
				for _, k := range []int{1, 5, 100} {
					for _, kStar := range []int{k, n / 2, n, 1 << 40} {
						want := make([]float64, n)
						got := make([]float64, n)
						for tp := 0; tp < 3; tp++ {
							l := randPacked(rng, n, m, p)
							ranking, correct := unpackRanking(l)
							for j, v := range refValues(ranking, correct, n, k, kStar) {
								want[j] += v
							}
							AddValues(l, n, k, kStar, got)
						}
						requireSameBits(t, want, got, "AddValues")
					}
				}
			}
		}
	}
}

// The adapters pack and walk; they must equal the reference too.
func TestRankingAdaptersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 5, 99, 400} {
		for _, eps := range []float64{0.5, 0.05, 0.009} {
			for _, k := range []int{1, 7, 12} {
				l := randPacked(rng, n, n, 0.3)
				ranking, correct := unpackRanking(l)
				got := make([]float64, n)
				ExactClassFromRankingInto(ranking, correct, k, got)
				requireSameBits(t, refValues(ranking, correct, n, k, n), got, "ExactClassFromRankingInto")
				got = make([]float64, n)
				TruncatedFromRankingInto(ranking, correct, n, k, eps, got)
				requireSameBits(t, refValues(ranking, correct, n, k, KStar(k, eps)), got, "TruncatedFromRankingInto")
			}
		}
	}
}

// Packed full replays, summed over several test points into one vector the
// way the engine's ordered reduce and the cluster merge sum them, must add
// the exact values bit for bit (AddValues with kStar = n).
func TestReplayPackedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{1, 2, 3, 7, 64, 257, 1000} {
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			for _, k := range []int{1, 5, 100} {
				want := make([]float64, n)
				walked := make([]float64, n)
				for tp := 0; tp < 3; tp++ {
					l := randPacked(rng, n, n, p)
					ranking, correct := unpackRanking(l)
					for j, v := range refValues(ranking, correct, n, k, n) {
						want[j] += v
					}
					AddValues(l, n, k, n, walked)
				}
				requireSameBits(t, want, walked, "walk")
			}
		}
	}
}

// A replay of the K* prefix of a full packed ranking must add Theorem 2's
// truncated values bit for bit, including the eps small enough that
// K* >= n and the truncation is exact.
func TestReplayPackedPrefixMatchesTruncated(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{1, 5, 99, 400} {
		for _, eps := range []float64{0.5, 0.05, 0.009} {
			for _, k := range []int{1, 7} {
				kStar := KStar(k, eps)
				want := make([]float64, n)
				got := make([]float64, n)
				for tp := 0; tp < 3; tp++ {
					l := randPacked(rng, n, n, 0.3)
					ranking, correct := unpackRanking(l)
					for j, v := range refValues(ranking, correct, n, k, kStar) {
						want[j] += v
					}
					AddValues(l, n, k, kStar, got)
				}
				requireSameBits(t, want, got, "truncated")
			}
		}
	}
}

func TestTermsMatchesRecurrence(t *testing.T) {
	for _, k := range []int{1, 3, 9} {
		terms := Terms(k, 50)
		if len(terms) < 51 {
			t.Fatalf("Terms(%d, 50) has %d entries", k, len(terms))
		}
		for i := 1; i <= 50; i++ {
			minKi := float64(min(k, i))
			want := (1.0 - 0.0) / float64(k) * minKi / float64(i)
			if math.Float64bits(terms[i]) != math.Float64bits(want) {
				t.Fatalf("Terms(%d)[%d] = %x, want %x", k, i, math.Float64bits(terms[i]), math.Float64bits(want))
			}
			// IEEE negation is exact, so one table serves downward flips too.
			down := (0.0 - 1.0) / float64(k) * minKi / float64(i)
			if math.Float64bits(-terms[i]) != math.Float64bits(down) {
				t.Fatalf("-Terms(%d)[%d] != downward term", k, i)
			}
		}
	}
	// Growth keeps earlier entries stable.
	small := append([]float64(nil), Terms(5, 10)...)
	grown := Terms(5, 1000)
	for i := range small {
		if math.Float64bits(small[i]) != math.Float64bits(grown[i]) {
			t.Fatalf("Terms growth changed entry %d", i)
		}
	}
	// The per-K retention bound holds.
	for k := 100; k < 100+2*termsMaxK; k++ {
		Terms(k, 4)
	}
	termsMu.Lock()
	nk := len(termsByK)
	termsMu.Unlock()
	if nk > termsMaxK {
		t.Fatalf("terms cache holds %d tables, bound %d", nk, termsMaxK)
	}
}
