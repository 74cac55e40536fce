package planner

import (
	"math"
	"testing"
)

// classGrid builds the workload at one calibration grid point: unweighted
// L2 classification with the tolerances the grid was measured at.
func classGrid(n, dim, ntest int, kdReady, lshReady bool) Workload {
	return Workload{
		N: n, Dim: dim, NTest: ntest, K: 5,
		Eps: 0.1, Delta: 0.1, L2: true,
		KDIndexReady: kdReady, LSHIndexReady: lshReady,
	}
}

// empiricalBest recomputes the fastest method at a grid point directly from
// the measured calibration table — the ground truth Plan must match.
func empiricalBest(w Workload) string {
	best, bestNs := "", math.Inf(1)
	for m, pts := range grid {
		if eligibility(m, w) != "" {
			continue
		}
		for _, p := range pts {
			if p.n != w.N || p.dim != w.Dim {
				continue
			}
			build := p.buildNs
			if (m == MethodKD && w.KDIndexReady) || (m == MethodLSH && w.LSHIndexReady) {
				build *= loadFraction
			}
			if total := build + float64(w.NTest)*p.perPointNs; total < bestNs {
				best, bestNs = m, total
			}
		}
	}
	return best
}

// TestPlanPicksEmpiricalBestAcrossGrid pins the acceptance bar: over the
// whole calibration grid — cold, with a persisted k-d tree, and with every
// index persisted — auto must pick the empirically fastest method at least
// 90% of the time (an uncertainty fallback to exact counts as a miss).
func TestPlanPicksEmpiricalBestAcrossGrid(t *testing.T) {
	cases, hits := 0, 0
	for _, dim := range gridDims {
		for _, n := range gridNs {
			for _, ready := range []struct{ kd, lsh bool }{{false, false}, {true, false}, {true, true}} {
				w := classGrid(n, dim, 16, ready.kd, ready.lsh)
				want := empiricalBest(w)
				got := Plan(w)
				cases++
				if got.Method == want {
					hits++
				} else {
					t.Logf("n=%d dim=%d kdReady=%t lshReady=%t: picked %s, empirical best %s (fallback=%t)",
						n, dim, ready.kd, ready.lsh, got.Method, want, got.Fallback)
				}
			}
		}
	}
	if float64(hits) < 0.9*float64(cases) {
		t.Fatalf("picked the empirically fastest method in %d/%d grid cases, need >= 90%%", hits, cases)
	}
}

// TestPlanPinnedChoices pins the concrete decisions the calibration grid
// implies, so a grid regression (or a cost-model edit) shows up as a
// readable diff rather than a silent planner change.
func TestPlanPinnedChoices(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		want string
	}{
		// Cold starts: the GEMV-backed truncated scan wins the whole grid —
		// index builds cost more than they save at ntest=16.
		{"cold-1e3-d4", classGrid(1000, 4, 16, false, false), MethodTruncated},
		{"cold-1e5-d4", classGrid(100000, 4, 16, false, false), MethodTruncated},
		{"cold-1e5-d64", classGrid(100000, 64, 16, false, false), MethodTruncated},
		// A persisted k-d tree flips every low-dimension point to kd.
		{"kdready-1e3-d4", classGrid(1000, 4, 16, true, false), MethodKD},
		{"kdready-1e4-d4", classGrid(10000, 4, 16, true, false), MethodKD},
		{"kdready-1e5-d4", classGrid(100000, 4, 16, true, false), MethodKD},
		// In high dimension the tree degrades toward a linear scan and the
		// planner keeps truncated even with the index persisted.
		{"kdready-1e5-d64", classGrid(100000, 64, 16, true, false), MethodTruncated},
		// Tolerance gates: eps=0 demands exact; delta=0 excludes lsh and
		// montecarlo but not the (eps,0) methods.
		{"eps0", Workload{N: 100000, Dim: 4, NTest: 16, K: 5, L2: true}, MethodExact},
		{"delta0-d4-kdready", Workload{N: 100000, Dim: 4, NTest: 16, K: 5, Eps: 0.1, L2: true, KDIndexReady: true}, MethodKD},
		// Non-L2 metrics rule out the ANN indexes; truncated still applies.
		{"nonl2", Workload{N: 100000, Dim: 4, NTest: 16, K: 5, Eps: 0.1, Delta: 0.1}, MethodTruncated},
		// Weighted utilities route to Monte-Carlo (exact costs ~N^K);
		// without a statistical target they stay exact.
		{"weighted", Workload{N: 10000, Dim: 4, NTest: 16, K: 5, Eps: 0.1, Delta: 0.1, Weighted: true, L2: true}, MethodMonteCarlo},
		{"weighted-eps0", Workload{N: 10000, Dim: 4, NTest: 16, K: 5, Weighted: true, L2: true}, MethodExact},
		// Regression has no ranking approximation; the grid says exact beats
		// Monte-Carlo.
		{"regression", Workload{N: 10000, Dim: 4, NTest: 16, K: 5, Eps: 0.1, Delta: 0.1, Regression: true, L2: true}, MethodExact},
	}
	for _, tc := range cases {
		d := Plan(tc.w)
		if d.Method != tc.want {
			t.Errorf("%s: picked %s, want %s (%s)", tc.name, d.Method, tc.want, d.Reason)
		}
		if len(d.Estimates) != 5 {
			t.Errorf("%s: %d estimates, want 5", tc.name, len(d.Estimates))
		}
	}
}

// TestPlanExtrapolation: outside the calibration hull the wider margin
// applies and the decision is flagged, but a large predicted win still goes
// through.
func TestPlanExtrapolation(t *testing.T) {
	d := Plan(classGrid(1000000, 4, 16, true, false))
	if !d.Extrapolated {
		t.Fatal("n=1e6 not flagged as extrapolated")
	}
	if d.Method == MethodExact {
		t.Fatalf("expected an approximation to survive the wide margin at n=1e6, got exact (%s)", d.Reason)
	}
	// Far outside the hull with no tolerance given, only exact is eligible.
	d = Plan(Workload{N: 5000000, Dim: 512, NTest: 1, K: 5, L2: true})
	if d.Method != MethodExact {
		t.Fatalf("eps=0 at any scale must stay exact, got %s", d.Method)
	}
}

// TestPlanFallbackMargin forces a near-tie: a predicted win below the
// in-hull margin must fall back to exact and say so.
func TestPlanFallbackMargin(t *testing.T) {
	// At n=1e3 dim=64 the grid has truncated at 1.40x exact per point; with
	// build-free methods only, shrinking the margin's headroom needs a
	// workload where the ratio drops below 1.3. ntest does not change the
	// ratio for index-free methods, so probe the dim axis: interpolation
	// between dim=4 (8.6x) and dim=64 (1.4x) crosses 1.3 just above dim=64 —
	// extrapolate slightly beyond the hull where the 3x margin applies.
	d := Plan(classGrid(1000, 80, 16, false, false))
	if !d.Extrapolated {
		t.Fatal("dim=80 not flagged as extrapolated")
	}
	if d.Method != MethodExact || !d.Fallback {
		t.Fatalf("expected uncertainty fallback to exact, got %s (fallback=%t, %s)",
			d.Method, d.Fallback, d.Reason)
	}
}

// TestCounters: recorded decisions land in the Stats a server's /statz
// exposes, starting from zero with every pickable method present.
func TestCounters(t *testing.T) {
	var c Counters
	before := c.Stats()
	for _, d := range []Decision{
		Plan(classGrid(1000, 4, 16, false, false)),
		Plan(Workload{N: 1000, Dim: 4, NTest: 16, K: 5, L2: true}), // eps=0 → exact
	} {
		c.Record(d.Method, d.Fallback, d.Extrapolated)
	}
	after := c.Stats()
	if before.Plans != 0 || len(before.Picks) != 5 {
		t.Fatalf("zero counters %+v, want 0 plans and a 0 pick for each of 5 methods", before)
	}
	if after.Plans != 2 {
		t.Fatalf("plans %d -> %d, want +2", before.Plans, after.Plans)
	}
	if after.Picks[MethodExact] != before.Picks[MethodExact]+1 {
		t.Fatalf("exact picks %d -> %d, want +1", before.Picks[MethodExact], after.Picks[MethodExact])
	}
}
