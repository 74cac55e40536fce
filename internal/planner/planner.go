// Package planner implements the cost-based method selection behind
// algo=auto: given a workload description (training-set size and dimension,
// test-set size, tolerance targets, utility kind, and whether an ANN index
// is already persisted), it predicts the wall-clock cost of every eligible
// valuation method from a committed calibration grid — rescaled to the host
// by a one-time micro-probe — and picks the cheapest, falling back to exact
// whenever the predicted win is within the model's uncertainty.
package planner

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"time"
)

// Method names, matching the root package's Method registry.
const (
	MethodExact      = "exact"
	MethodTruncated  = "truncated"
	MethodMonteCarlo = "montecarlo"
	MethodLSH        = "lsh"
	MethodKD         = "kd"
)

// loadFraction models reloading a persisted index as this fraction of its
// build cost — deliberately pessimistic against the ≥20× reload speedups
// the index benchmarks measure, so "index persisted" never over-promises.
const loadFraction = 0.05

// Margins a non-exact winner must beat exact by before the planner trusts
// the prediction: modest inside the calibration hull, wide when
// extrapolating beyond it. Anything closer falls back to exact — the only
// method whose cost model cannot pick a wrong answer, merely a slow one.
const (
	marginInHull       = 1.3
	marginExtrapolated = 3.0
)

// Workload describes one valuation request to be planned.
type Workload struct {
	// N, Dim describe the training set; NTest the test set; K the utility's
	// neighbor count.
	N, Dim, NTest, K int
	// Eps, Delta are the requested tolerance: eps = 0 demands exact values,
	// delta = 0 restricts to zero-failure-probability methods.
	Eps, Delta float64
	// Weighted / Regression mark utility kinds the ranking approximations
	// do not serve; L2 marks the metric the ANN indexes require.
	Weighted, Regression bool
	L2                   bool
	// LSHIndexReady / KDIndexReady report whether a usable index already
	// exists (persisted in the store or live in the session), so its build
	// cost is a cheap reload instead.
	LSHIndexReady, KDIndexReady bool
}

// Estimate is one method's predicted cost for a workload.
type Estimate struct {
	Method string `json:"method"`
	// PerPointNs is the predicted per-test-point valuation cost and BuildNs
	// the one-time index cost (zero for index-free methods; the reload
	// estimate when the index is already persisted). TotalNs = BuildNs +
	// NTest·PerPointNs is what the decision ranks.
	PerPointNs float64 `json:"perPointNs"`
	BuildNs    float64 `json:"buildNs,omitempty"`
	TotalNs    float64 `json:"totalNs"`
	// Eligible reports whether the method can serve the workload at all;
	// Reason says why not.
	Eligible bool   `json:"eligible"`
	Reason   string `json:"reason,omitempty"`
}

// Decision is the planner's verdict for one workload.
type Decision struct {
	// Method is the chosen algorithm.
	Method string `json:"method"`
	// Fallback marks a decision where a cheaper-looking method was rejected
	// because its predicted win was within the model's uncertainty margin.
	Fallback bool `json:"fallback,omitempty"`
	// Extrapolated marks workloads outside the calibration hull, where the
	// wider margin applied.
	Extrapolated bool `json:"extrapolated,omitempty"`
	// Reason is a one-line human-readable justification.
	Reason string `json:"reason"`
	// Estimates holds every method's prediction, eligible or not, ordered
	// by TotalNs with ineligible methods last — the audit trail a Report
	// carries.
	Estimates []Estimate `json:"estimates"`
}

// probeRefNs is the micro-probe's duration on the reference machine the
// calibration grid was measured on; the host's probe time divides by it to
// rescale every prediction.
const probeRefNs = 200000

var (
	probeOnce  sync.Once
	probeScale float64
)

// machineScale measures the host's distance-scan speed once and returns the
// factor the calibration numbers are multiplied by, clamped so one noisy
// probe cannot distort predictions by more than ~5x.
func machineScale() float64 {
	probeOnce.Do(func() {
		const rows, dim, reps = 512, 64, 8
		data := make([]float64, rows*dim)
		for i := range data {
			data[i] = float64(i%97) * 0.013
		}
		q := make([]float64, dim)
		for i := range q {
			q[i] = float64(i) * 0.07
		}
		sink := 0.0
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < rows; i++ {
				row := data[i*dim : (i+1)*dim]
				s := 0.0
				for d := 0; d < dim; d++ {
					diff := row[d] - q[d]
					s += diff * diff
				}
				sink += s
			}
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		if sink == math.Inf(1) { // keep the loop observable
			elapsed++
		}
		probeScale = math.Min(5, math.Max(0.2, elapsed/probeRefNs))
	})
	return probeScale
}

// interpLog linearly interpolates (extrapolating at the edges) y(x) through
// the given nodes, in log-y space — each segment is a power law in the
// underlying quantity, matching how every method here scales.
func interpLog(xs, logYs []float64, x float64) float64 {
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= len(xs):
		i = len(xs) - 1
	}
	x0, x1 := xs[i-1], xs[i]
	t := (x - x0) / (x1 - x0)
	return logYs[i-1] + t*(logYs[i]-logYs[i-1])
}

// predict interpolates the calibration grid for one method at (n, dim),
// returning (perPointNs, buildNs) rescaled to the host.
func predict(method string, n, dim int) (float64, float64) {
	pts := grid[method]
	logN := math.Log(float64(n))
	logD := math.Log(float64(dim))
	// Interpolate along N within each calibration dim, then across dim.
	perAtDim := make([]float64, len(gridDims))
	buildAtDim := make([]float64, len(gridDims))
	for di, d := range gridDims {
		xs := make([]float64, 0, len(gridNs))
		logPer := make([]float64, 0, len(gridNs))
		logBuild := make([]float64, 0, len(gridNs))
		for _, gn := range gridNs {
			for _, p := range pts {
				if p.n == gn && p.dim == d {
					xs = append(xs, math.Log(float64(gn)))
					logPer = append(logPer, math.Log(p.perPointNs))
					if p.buildNs > 0 {
						logBuild = append(logBuild, math.Log(p.buildNs))
					}
				}
			}
		}
		perAtDim[di] = interpLog(xs, logPer, logN)
		if len(logBuild) == len(xs) {
			buildAtDim[di] = interpLog(xs, logBuild, logN)
		}
	}
	dimXs := make([]float64, len(gridDims))
	for i, d := range gridDims {
		dimXs[i] = math.Log(float64(d))
	}
	scale := machineScale()
	per := math.Exp(interpLog(dimXs, perAtDim, logD)) * scale
	build := 0.0
	if buildAtDim[0] != 0 {
		build = math.Exp(interpLog(dimXs, buildAtDim, logD)) * scale
	}
	return per, build
}

// inHull reports whether (n, dim) lies inside the calibration grid.
func inHull(n, dim int) bool {
	return n >= gridNs[0] && n <= gridNs[len(gridNs)-1] &&
		dim >= gridDims[0] && dim <= gridDims[len(gridDims)-1]
}

// eligibility returns "" when method can serve w, else why it cannot.
func eligibility(method string, w Workload) string {
	ranking := func() string {
		switch {
		case w.Regression:
			return "ranking approximations serve classification only"
		case w.Weighted:
			return "ranking approximations serve unweighted utilities only"
		case w.Eps <= 0:
			return "eps = 0 demands exact values"
		}
		return ""
	}
	switch method {
	case MethodExact:
		return ""
	case MethodTruncated:
		return ranking()
	case MethodMonteCarlo:
		if w.Eps <= 0 {
			return "eps = 0 demands exact values"
		}
		if w.Delta <= 0 || w.Delta >= 1 {
			return "needs delta in (0,1)"
		}
		return ""
	case MethodLSH:
		if r := ranking(); r != "" {
			return r
		}
		if !w.L2 {
			return "p-stable LSH requires the L2 metric"
		}
		if w.Delta <= 0 || w.Delta >= 1 {
			return "needs delta in (0,1)"
		}
		return ""
	case MethodKD:
		if r := ranking(); r != "" {
			return r
		}
		if !w.L2 {
			return "the k-d tree requires the L2 metric"
		}
		return ""
	}
	return "unknown method"
}

// Plan predicts the cost of every method for w and picks the cheapest
// eligible one, falling back to exact when the predicted win is within the
// model's uncertainty margin. It never errs: an unplannable workload simply
// gets exact.
func Plan(w Workload) Decision {
	if w.N < 1 {
		w.N = 1
	}
	if w.Dim < 1 {
		w.Dim = 1
	}
	if w.NTest < 1 {
		w.NTest = 1
	}
	extrapolated := !inHull(w.N, w.Dim)

	ests := make([]Estimate, 0, len(grid))
	for _, m := range []string{MethodExact, MethodTruncated, MethodMonteCarlo, MethodLSH, MethodKD} {
		e := Estimate{Method: m}
		if reason := eligibility(m, w); reason != "" {
			e.Reason = reason
			ests = append(ests, e)
			continue
		}
		e.Eligible = true
		per, build := predict(m, w.N, w.Dim)
		if (m == MethodLSH && w.LSHIndexReady) || (m == MethodKD && w.KDIndexReady) {
			build *= loadFraction
			e.Reason = "index already built"
		}
		e.PerPointNs = per
		e.BuildNs = build
		e.TotalNs = build + float64(w.NTest)*per
		ests = append(ests, e)
	}

	var exact, best, mc *Estimate
	for i := range ests {
		e := &ests[i]
		if !e.Eligible {
			continue
		}
		switch e.Method {
		case MethodExact:
			exact = e
		case MethodMonteCarlo:
			mc = e
		}
		if best == nil || e.TotalNs < best.TotalNs {
			best = e
		}
	}

	// The calibration grid measures unweighted utilities; exact weighted
	// valuation costs ~N^K (Theorem 7), far off any grid point. When a
	// statistical target is given, Monte-Carlo is the paper's own
	// recommendation there — no cost comparison needed.
	if w.Weighted && mc != nil {
		sort.SliceStable(ests, func(i, j int) bool { return ests[i].Eligible && !ests[j].Eligible })
		return Decision{
			Method: MethodMonteCarlo, Extrapolated: extrapolated,
			Reason:    fmt.Sprintf("weighted utility: exact costs ~N^K, Monte-Carlo meets (eps=%g, delta=%g) directly", w.Eps, w.Delta),
			Estimates: ests,
		}
	}

	d := Decision{Method: best.Method, Extrapolated: extrapolated}
	margin := marginInHull
	if extrapolated {
		margin = marginExtrapolated
	}
	if best != exact && best.TotalNs*margin > exact.TotalNs {
		d.Method = MethodExact
		d.Fallback = true
		d.Reason = fmt.Sprintf(
			"%s predicted %s vs exact %s: within the %.1fx uncertainty margin, keeping exact",
			best.Method, fmtNs(best.TotalNs), fmtNs(exact.TotalNs), margin)
	} else if best == exact {
		d.Reason = fmt.Sprintf("exact predicted cheapest at %s (n=%d dim=%d ntest=%d)",
			fmtNs(exact.TotalNs), w.N, w.Dim, w.NTest)
	} else {
		d.Reason = fmt.Sprintf("%s predicted %s vs exact %s (%.1fx) at n=%d dim=%d ntest=%d",
			best.Method, fmtNs(best.TotalNs), fmtNs(exact.TotalNs),
			exact.TotalNs/best.TotalNs, w.N, w.Dim, w.NTest)
	}
	sort.SliceStable(ests, func(i, j int) bool {
		if ests[i].Eligible != ests[j].Eligible {
			return ests[i].Eligible
		}
		return ests[i].TotalNs < ests[j].TotalNs
	})
	d.Estimates = ests
	return d
}

// fmtNs renders a nanosecond estimate human-readably.
func fmtNs(ns float64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

// Stats is a snapshot of the planner's decision counters: the "planner"
// block of svserver's /statz and, under the prom names whose help says what
// each counts, of /metrics. Picks has a key for every method the planner
// can pick from the start, so each keeps a series while at 0.
type Stats struct {
	Plans        int64            `json:"plans" prom:"svserver_planner_plans_total,algo=auto planning decisions made."`
	Picks        map[string]int64 `json:"picks" prom:"svserver_planner_picks_total{method},algo=auto decisions per picked method."`
	Fallbacks    int64            `json:"fallbacks" prom:"svserver_planner_fallbacks_total,Planner decisions that fell back to exact within the uncertainty margin."`
	Extrapolated int64            `json:"extrapolated" prom:"svserver_planner_extrapolated_total,Planner decisions outside the calibration hull."`
}

// Counters accumulates the planning decisions one server made — the
// numbers its /statz exposes. Plan itself counts nothing, so servers in
// one process never share counts. The zero value is ready to use and safe
// for concurrent use.
type Counters struct {
	mu sync.Mutex
	st Stats
}

// Record counts one decision that picked method.
func (c *Counters) Record(method string, fallback, extrapolated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.Picks == nil {
		c.st.Picks = make(map[string]int64)
	}
	c.st.Plans++
	c.st.Picks[method]++
	if fallback {
		c.st.Fallbacks++
	}
	if extrapolated {
		c.st.Extrapolated++
	}
}

// Stats returns a snapshot of the counters.
func (c *Counters) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Picks = map[string]int64{
		MethodExact: 0, MethodTruncated: 0, MethodMonteCarlo: 0, MethodLSH: 0, MethodKD: 0,
	}
	maps.Copy(st.Picks, c.st.Picks)
	return st
}
