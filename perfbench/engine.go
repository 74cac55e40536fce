package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"knnshapley"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// runEngineBatch is the engine_batch workload: one warm Valuer over the
// training set, closed loop, one caller. Each fresh test batch is valued
// once with exact and once with truncated (two ops).
func runEngineBatch(e *env) error {
	c, k := e.cfg.Engine, e.cfg.K
	ctx := context.Background()
	train := dataset.MNISTLike(c.N, e.inputSeed(1))
	n, dim := int64(c.N), int64(train.Dim())
	e.recordHost(n*dim*8+n*8+int64(c.Batch)*n*9,
		"train matrix + row norms + one batch's distance and correctness tile")

	// Setup: a fresh session plus its first cold valuation, several times.
	var v *knnshapley.Valuer
	var setups, newMs, preMs, fpMs []float64
	for i := 0; i < c.Setups; i++ {
		v = nil
		runtime.GC()
		warm := dataset.MNISTLike(c.Batch, e.inputSeed(2))
		start := time.Now()
		var err error
		if v, err = knnshapley.New(train, knnshapley.WithK(k)); err != nil {
			return err
		}
		if _, err = v.Exact(ctx, warm); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if e.traced {
			// The session's setup layers, timed by calling them directly.
			newMs = append(newMs, timeMs(func() { _, _ = knnshapley.New(train, knnshapley.WithK(k)) }))
			preMs = append(preMs, timeMs(func() { knn.NewPrecomp(train, vec.L2, knn.Float64) }))
			fpMs = append(fpMs, timeMs(func() { train.Fingerprint() }))
		}
	}
	e.rep.set("setup_s", median(setups), fmt.Sprintf("median of %d setups: New + first cold exact valuation", len(setups)))

	all := make([]int, c.N)
	for i := range all {
		all[i] = i
	}
	var (
		tr        *tracer
		pre       *knn.Precomp
		replay    libReplay
		lat       []float64
		measured  time.Duration
		ops       []engineOp
		exactOps  = map[int]bool{}
		plainWall time.Duration
		traceWall time.Duration
	)
	if e.traced {
		tr = &tracer{}
		pre = knn.NewPrecomp(train, vec.L2, knn.Float64)
	}
	if err := startTimedPhase("self"); err != nil {
		return err
	}
	for pair := 0; measured.Seconds() < e.seconds; pair++ {
		test := dataset.MNISTLike(c.Batch, e.inputSeed(100+uint64(pair)))
		exact, d, err := timedReport(func() (*knnshapley.Report, error) { return v.Exact(ctx, test) })
		measured += d
		e.rep.attempted++
		if err != nil {
			e.rep.fail(2*pair, "exact op %d: %v", 2*pair, err)
			continue
		}
		exactD := d
		ok := e.checkGroupRationality(ctx, 2*pair, v, test, exact.Values, all)
		if e.traced {
			exactOps[2*pair] = true
			p, t := e.replayEngineOp(tr, &replay, 2*pair, train, test, pre, "exact", 0, exact.Values)
			plainWall, traceWall = plainWall+p, traceWall+t
			ops = append(ops, engineOp{id: 2 * pair, evalMs: ms(d), plainMs: ms(p)})
		}

		trunc, d, err := timedReport(func() (*knnshapley.Report, error) { return v.Truncated(ctx, test, c.TruncatedEps) })
		measured += d
		e.rep.attempted++
		if err != nil {
			e.rep.fail(2*pair+1, "truncated op %d: %v", 2*pair+1, err)
			continue
		}
		lat = append(lat, ms(exactD+d))
		if ok {
			// Theorem 2: every value within eps of the exact one.
			worst := maxAbsDiff(trunc.Values, exact.Values)
			e.rep.noteErr(worst)
			if worst > c.TruncatedEps {
				e.rep.fail(2*pair+1, "truncated op %d: |truncated - exact| = %g > eps %g", 2*pair+1, worst, c.TruncatedEps)
			}
		}
		if e.traced {
			p, t := e.replayEngineOp(tr, &replay, 2*pair+1, train, test, pre, "truncated", c.TruncatedEps, trunc.Values)
			plainWall, traceWall = plainWall+p, traceWall+t
			ops = append(ops, engineOp{id: 2*pair + 1, evalMs: ms(d), plainMs: ms(p)})
		}
	}
	e.setLatency(lat, "batches (exact + truncated op)", e.rep.attempted, measured)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	e.rep.set("peak_rss_mb", rss, "VmHWM over the timed phase of the benchmark process, which runs the engine")
	if !e.traced {
		return nil
	}

	e.rep.set("knnshapley.new_ms", median(newMs), fmt.Sprintf("median of %d setups", len(newMs)))
	e.rep.set("knn.precomp_ms", median(preMs), fmt.Sprintf("median of %d setups", len(preMs)))
	e.rep.set("dataset.fingerprint_ms", median(fpMs), fmt.Sprintf("median of %d setups", len(fpMs)))
	self := tr.selfByOp()
	scan, nops := layerMedian(self, "knn.scan")
	scanBytes := float64(n*dim*8 + n*8 + int64(c.Batch)*(dim*8+n*8))
	e.rep.set("knn.scan_ms", scan, fmt.Sprintf("%d ops", nops))
	e.rep.set("knn.scan_bytes", scanBytes, "computed per op: train matrix + norms + queries read, distance tile written")
	e.rep.set("knn.scan_gbps", scanBytes/(scan/1e3)/1e9, "knn.scan_bytes / knn.scan_ms")
	setLayer(e, self, "vec.argsort", "exact ops")
	setLayer(e, self, "kheap.topk", "truncated ops")
	var recExact []float64
	for op, v := range self["core.recurrence"] {
		if exactOps[op] {
			recExact = append(recExact, v)
		}
	}
	e.rep.set("core.recurrence_ms", median(recExact), fmt.Sprintf("%d exact ops", len(recExact)))
	setLayer(e, self, "core.reduce", "all ops")

	// Blocking path of one op: the scan and reduce run on the caller, the
	// per-point sort/select and recurrence fan out over the workers.
	workers := float64(runtime.GOMAXPROCS(0))
	var eff, unattr []float64
	for _, o := range ops {
		perPoint := self["vec.argsort"][o.id] + self["kheap.topk"][o.id] + self["core.recurrence"][o.id]
		attributed := self["knn.scan"][o.id] + perPoint/workers + self["core.reduce"][o.id]
		unattr = append(unattr, o.evalMs-attributed)
		eff = append(eff, o.plainMs/(workers*o.evalMs))
	}
	e.rep.set("core.parallel_efficiency", median(eff),
		fmt.Sprintf("median over %d ops of single-thread replay time / (%g workers x Evaluate wall time)", len(ops), workers))
	e.rep.set("unattributed_ms", median(unattr), "median over ops of Evaluate wall - (scan + (sort+recurrence)/workers + reduce)")
	e.rep.set("trace.overhead_ratio", traceWall.Seconds()/plainWall.Seconds(),
		fmt.Sprintf("traced replay %.3fs / untraced replay %.3fs over the same ops", traceWall.Seconds(), plainWall.Seconds()))
	return nil
}

// engineOp is one op's timings in the traced run.
type engineOp struct {
	id              int
	evalMs, plainMs float64
}

// replayEngineOp replays one op untraced and traced (alternating which runs
// first), checks both against the values the Valuer returned, and returns
// the two wall times.
func (e *env) replayEngineOp(tr *tracer, l *libReplay, op int, train, test *dataset.Dataset, pre *knn.Precomp,
	method string, eps float64, want []float64) (plain, traced time.Duration) {
	k := e.cfg.K
	runPlain := func() {
		start := time.Now()
		got, err := l.value(nil, train, test, pre, k, method, eps)
		plain = time.Since(start)
		e.checkReplay(op, got, err, want)
	}
	runTraced := func() {
		tr.setOp(op)
		start := time.Now()
		root := tr.begin("op")
		got, err := l.value(tr, train, test, pre, k, method, eps)
		tr.end(root)
		traced = time.Since(start)
		e.checkReplay(op, got, err, want)
	}
	if op%4 < 2 {
		runPlain()
		runTraced()
	} else {
		runTraced()
		runPlain()
	}
	return plain, traced
}

// checkReplay fails the op unless the replay reproduced want bit for bit.
func (e *env) checkReplay(op int, got []float64, err error, want []float64) {
	switch {
	case err != nil:
		e.rep.fail(op, "op %d: replay: %v", op, err)
	case !bitsEqual(got, want):
		e.rep.fail(op, "op %d: replay differs from the untraced values", op)
	}
}

// checkGroupRationality checks Σ values = ν(I) − ν(∅) via Utility; it
// reports whether the values passed.
func (e *env) checkGroupRationality(ctx context.Context, op int, v *knnshapley.Valuer, test *dataset.Dataset, values []float64, all []int) bool {
	full, err := v.Utility(ctx, test, all)
	if err == nil {
		var empty float64
		if empty, err = v.Utility(ctx, test, nil); err == nil {
			var sum float64
			for _, x := range values {
				sum += x
			}
			if d := math.Abs(sum - (full - empty)); d > 1e-9 {
				err = fmt.Errorf("sum of values %.15g != v(I) - v(empty) = %.15g", sum, full-empty)
			}
		}
	}
	if err != nil {
		e.rep.fail(op, "exact op %d: group rationality: %v", op, err)
		return false
	}
	return true
}

// setLatency reports the latency percentiles of samples (what one sample
// times is named by what) and the op rate over the measured time.
func (e *env) setLatency(lat []float64, what string, ops int, measured time.Duration) {
	note := fmt.Sprintf("n=%d %s", len(lat), what)
	e.rep.set("latency_p50_ms", median(lat), note)
	e.rep.set("latency_p90_ms", quantile(lat, 0.9), note)
	e.rep.set("ops_per_s", float64(ops)/measured.Seconds(), fmt.Sprintf("%d ops over %.3fs", ops, measured.Seconds()))
}

// setLayer reports the per-op median self time of one layer.
func setLayer(e *env, self map[string]map[int]float64, layer, note string) {
	v, n := layerMedian(self, layer)
	if n == 0 {
		return
	}
	e.rep.set(layer+"_ms", v, fmt.Sprintf("%d %s", n, note))
}

func timeMs(f func()) float64 {
	start := time.Now()
	f()
	return ms(time.Since(start))
}

func timedReport(f func() (*knnshapley.Report, error)) (*knnshapley.Report, time.Duration, error) {
	start := time.Now()
	rep, err := f()
	return rep, time.Since(start), err
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
