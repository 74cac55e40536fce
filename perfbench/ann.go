package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"knnshapley"
	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/kdtree"
	"knnshapley/internal/knn"
	"knnshapley/internal/lsh"
	"knnshapley/internal/registry"
	"knnshapley/internal/vec"
)

// tunedMetaLen is the size of the tuned-metadata block that precedes the
// lsh codec's bytes in a persisted LSH payload (internal/core/indexcodec.go).
const tunedMetaLen = 5*8 + 4

// runANNIndex is the ann_index workload: setup builds the LSH and k-d
// indexes into a fresh index store and reloads both into a fresh session;
// the timed loop values fresh batches with lsh and kd alternately.
func runANNIndex(e *env) error {
	c, k := e.cfg.ANN, e.cfg.K
	ctx := context.Background()
	train := dataset.MNISTLike(c.N, e.inputSeed(1))
	lshKey := core.LSHConfig{K: k, Eps: c.Eps, Delta: c.Delta, Seed: c.IndexSeed}.LSHIndexKey()

	var (
		v        *knnshapley.Valuer
		st       *registry.IndexStore
		setups   []float64
		ts       *timedStore
		layerRun = map[string][]float64{}
	)
	for i := 0; i < c.Setups; i++ {
		v = nil
		runtime.GC()
		start := time.Now()
		var err error
		st, err = registry.NewIndexStore(registry.IndexConfig{Dir: filepath.Join(e.tmp, fmt.Sprintf("indexes-%d", i)), DiskBudget: 1 << 30})
		if err != nil {
			return err
		}
		var store knnshapley.IndexStore = knnshapley.WrapIndexStore(st)
		if e.traced {
			ts = &timedStore{inner: store}
			store = ts
		}
		steps := []struct {
			layer, kind string
			delta       float64
			seed        uint64
			fresh, load bool
		}{
			{"core.lsh_build", "lsh", c.Delta, c.IndexSeed, true, false},
			{"core.kd_build", "kd", 0, 0, false, false},
			{"core.lsh_load", "lsh", c.Delta, c.IndexSeed, true, true},
			{"core.kd_load", "kd", 0, 0, false, true},
		}
		for _, s := range steps {
			if s.fresh {
				if v, err = knnshapley.New(train, knnshapley.WithK(k), knnshapley.WithIndexStore(store)); err != nil {
					return err
				}
			}
			before := ts.total()
			t := time.Now()
			status, err := v.EnsureIndex(s.kind, c.Eps, s.delta, s.seed)
			if err != nil {
				return fmt.Errorf("%s: %w", s.layer, err)
			}
			if status.Loaded != s.load || status.Built == s.load {
				return fmt.Errorf("%s: index built=%v loaded=%v", s.layer, status.Built, status.Loaded)
			}
			layerRun[s.layer] = append(layerRun[s.layer], ms(time.Since(t)-(ts.total()-before)))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e.rep.set("setup_s", median(setups), fmt.Sprintf("median of %d setups: LSH + k-d build and persist, reload into a fresh session", len(setups)))

	// The persisted artifacts, decoded here for the traced replay.
	lshPayload, err := storedPayload(st, v.DatasetID(), "lsh", lshKey)
	if err != nil {
		return err
	}
	kdPayload, err := storedPayload(st, v.DatasetID(), "kd", core.KDIndexKey(0))
	if err != nil {
		return err
	}
	e.recordHost(int64(c.N)*int64(train.Dim())*8+int64(len(lshPayload)+len(kdPayload)),
		"train matrix + persisted LSH and k-d payloads")

	var (
		tr        *tracer
		idx       *lsh.Index
		tree      *kdtree.Tree
		replay    libReplay
		lat       []float64
		measured  time.Duration
		ops       []engineOp
		plainWall time.Duration
		traceWall time.Duration
		recall    []float64
		cands     []float64
		lshOps    []lshOp
	)
	kStar := core.KStar(k, c.Eps)
	if e.traced {
		tr = &tracer{}
		if idx, err = lsh.ReadIndex(bytes.NewReader(lshPayload[tunedMetaLen:]), train.X); err != nil {
			return err
		}
		if tree, err = kdtree.ReadIndex(bytes.NewReader(kdPayload), train.X); err != nil {
			return err
		}
	}
	if err := startTimedPhase("self"); err != nil {
		return err
	}
	methods := []struct {
		name, span string
		run        func(test *dataset.Dataset) (*knnshapley.Report, error)
	}{
		{"lsh", "lsh.query", func(test *dataset.Dataset) (*knnshapley.Report, error) {
			return v.LSH(ctx, test, c.Eps, c.Delta, c.IndexSeed)
		}},
		{"kd", "kdtree.query", func(test *dataset.Dataset) (*knnshapley.Report, error) { return v.KD(ctx, test, c.Eps) }},
	}
	for batch := 0; measured.Seconds() < e.seconds; batch++ {
		test := e.annTest(batch)
		var pair time.Duration
		var reps [2]*knnshapley.Report
		for m, meth := range methods {
			rep, d, err := timedReport(func() (*knnshapley.Report, error) { return meth.run(test) })
			measured += d
			pair += d
			e.rep.attempted++
			if err != nil {
				e.rep.fail(2*batch+m, "%s op %d: %v", meth.name, 2*batch+m, err)
				continue
			}
			reps[m] = rep
			if meth.name == "lsh" {
				lshOps = append(lshOps, lshOp{id: 2*batch + m, batch: batch, hash: bitsHash(rep.Values)})
			}
			if e.traced {
				op := 2*batch + m
				var truth [][]int
				query := func(q []float64) []int { ids, _ := tree.Query(q, kStar); return ids }
				if meth.name == "lsh" {
					truth = make([][]int, 0, test.N())
					for _, q := range test.X {
						truth = append(truth, knn.Neighbors(train.X, q, kStar, vec.L2))
					}
					i := 0
					query = func(q []float64) []int {
						res := idx.Query(q, kStar)
						if i < len(truth) { // the first of the two replay passes
							recall = append(recall, lsh.Recall(truth[i], res.IDs))
							cands = append(cands, float64(res.Candidates))
							i++
						}
						return res.IDs
					}
				}
				p, t := replayPair(tr, op, func(tr *tracer) []float64 {
					return replay.annValue(tr, meth.span, train, test, k, c.Eps, query, nil)
				}, e, rep.Values)
				plainWall, traceWall = plainWall+p, traceWall+t
				ops = append(ops, engineOp{id: op, evalMs: ms(d), plainMs: ms(p)})
			}
		}
		if reps[0] == nil || reps[1] == nil {
			continue
		}
		lat = append(lat, ms(pair))
		// Exact reference, outside the timed phase: kd is within eps of it
		// (Theorem 2). LSH may miss neighbors with probability delta, so it
		// is checked per test point over the whole run, after the timed phase.
		exact, err := v.Exact(ctx, test)
		if err != nil {
			e.rep.fail(2*batch+1, "kd op %d: exact reference: %v", 2*batch+1, err)
			continue
		}
		e.rep.noteErr(maxAbsDiff(reps[0].Values, exact.Values))
		kdErr := maxAbsDiff(reps[1].Values, exact.Values)
		e.rep.noteErr(kdErr)
		if kdErr > c.Eps {
			e.rep.fail(2*batch+1, "kd op %d: |kd - exact| = %g > eps %g", 2*batch+1, kdErr, c.Eps)
		}
	}
	e.setLatency(lat, "batches (lsh + kd op)", e.rep.attempted, measured)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	e.rep.set("peak_rss_mb", rss, "VmHWM over the timed phase of the benchmark process, which runs the engine")
	if idx == nil {
		// Read back only now: holding the payload through the timed phase
		// would raise the heap, and with it peak_rss_mb.
		payload, err := storedPayload(st, v.DatasetID(), "lsh", lshKey)
		if err != nil {
			return err
		}
		if idx, err = lsh.ReadIndex(bytes.NewReader(payload[tunedMetaLen:]), train.X); err != nil {
			return err
		}
	}
	e.checkLSH(lshOps, train, func(q []float64) []int { return idx.Query(q, kStar).IDs })
	if !e.traced {
		return nil
	}

	for layer, xs := range layerRun {
		e.rep.set(layer+"_ms", median(xs), fmt.Sprintf("median of %d setups, self time (store calls excluded)", len(xs)))
	}
	ts.mu.Lock()
	e.rep.set("registry.index_put_ms", median(ts.puts), fmt.Sprintf("median of %d PutIndex calls", len(ts.puts)))
	e.rep.set("registry.index_get_ms", median(ts.gets), fmt.Sprintf("median of %d GetIndex calls", len(ts.gets)))
	ts.mu.Unlock()
	var tune []float64
	for i := 0; i < c.Setups; i++ {
		// lsh.Tune as core.NewLSHValuer calls it (same RNG stream).
		rng := rand.New(rand.NewPCG(c.IndexSeed, 0x94d049bb133111eb))
		tune = append(tune, timeMs(func() { lsh.Tune(train.X, train.X, kStar, c.Delta, 1, 512, c.IndexSeed, rng) }))
	}
	e.rep.set("lsh.tune_ms", median(tune), fmt.Sprintf("median of %d calls", len(tune)))
	e.rep.set("lsh.tables", float64(idx.Tables()), "tables in the persisted index")
	e.rep.set("lsh.index_bytes", float64(len(lshPayload)), "persisted LSH payload")
	e.rep.set("lsh.recall", mean(recall), fmt.Sprintf("mean over %d queries of recall of the true K*=%d neighbors", len(recall), kStar))
	e.rep.set("lsh.candidates_per_query", mean(cands), fmt.Sprintf("mean over %d queries", len(cands)))

	self := tr.selfByOp()
	setLayer(e, self, "lsh.query", "lsh ops")
	setLayer(e, self, "kdtree.query", "kd ops")
	setLayer(e, self, "core.recurrence", "ops")
	setLayer(e, self, "core.reduce", "ops")
	workers := float64(runtime.GOMAXPROCS(0))
	var unattr []float64
	for _, o := range ops {
		perPoint := self["lsh.query"][o.id] + self["kdtree.query"][o.id] + self["core.recurrence"][o.id]
		unattr = append(unattr, o.evalMs-(perPoint/workers+self["core.reduce"][o.id]))
	}
	e.rep.set("unattributed_ms", median(unattr), "median over ops of Evaluate wall - ((query+recurrence)/workers + reduce)")
	e.rep.set("trace.overhead_ratio", traceWall.Seconds()/plainWall.Seconds(),
		fmt.Sprintf("traced replay %.3fs / untraced replay %.3fs over the same ops", traceWall.Seconds(), plainWall.Seconds()))
	return nil
}

// annTest is the test batch of ann_index batch number batch.
func (e *env) annTest(batch int) *dataset.Dataset {
	return dataset.MNISTLike(e.cfg.ANN.Batch, e.inputSeed(100+uint64(batch)))
}

// lshOp is one lsh op of ann_index: its op and batch number and the
// bitsHash of the values it returned.
type lshOp struct {
	id, batch int
	hash      uint64
}

// checkLSH checks the values of every lsh op per test point against the
// exact ones, with the persisted index's neighbors from query:
//
//   - averaged in the engine's order, the per-point values must reproduce
//     the op's values bit for bit;
//   - a point whose retrieved neighbors include all of its K* nearest must
//     be within eps of exact (Theorem 2);
//   - over the run, at most a 2*delta share of the points may be more than
//     eps from exact; past that, every lsh op with such a point fails.
//
// The share is reported as lsh.eps_miss_ratio. Its bound is 2*delta, not
// delta, because core caps the index at 512 tables, below the Theorem 3
// budget at this size, so the built index promises no delta of its own; on
// a correct tree the share runs at about delta (0.06-0.10 across seeds at
// delta 0.1), while a query that returns wrong neighbors puts it near 1.
func (e *env) checkLSH(ops []lshOp, train *dataset.Dataset, query func(q []float64) []int) {
	c := e.cfg.ANN
	pre := knn.NewPrecomp(train, vec.L2, knn.Float64)
	// The ops are independent and the timed phase is over: use every core.
	results := make([]lshResult, len(ops))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lshRun, exactRun libReplay
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				results[i] = e.checkLSHOp(&lshRun, &exactRun, ops[i], train, pre, query)
			}
		}()
	}
	wg.Wait()
	missed := 0
	for i, r := range results {
		missed += r.misses
		for _, f := range r.failures {
			e.rep.fail(ops[i].id, "lsh op %d: %s", ops[i].id, f)
		}
	}
	points := len(ops) * c.Batch
	share := float64(missed) / float64(max(points, 1))
	e.rep.set("lsh.eps_miss_ratio", share, fmt.Sprintf("%d of %d test points with an LSH value more than eps from exact (fails above 2*delta = %g)", missed, points, 2*c.Delta))
	if share <= 2*c.Delta {
		return
	}
	for i, r := range results {
		if r.misses > 0 {
			e.rep.fail(ops[i].id, "lsh op %d: %d of %d test points more than eps from exact; over the run %.3f > 2*delta %g",
				ops[i].id, r.misses, c.Batch, share, 2*c.Delta)
		}
	}
}

// lshResult is the outcome of checking one lsh op.
type lshResult struct {
	misses   int      // test points more than eps from exact
	failures []string // failed checks
}

// checkLSHOp checks one lsh op per test point (see checkLSH): lshRun
// replays the op, exactRun values each test point on its own.
func (e *env) checkLSHOp(lshRun, exactRun *libReplay, op lshOp, train *dataset.Dataset, pre *knn.Precomp, query func(q []float64) []int) (r lshResult) {
	c, k := e.cfg.ANN, e.cfg.K
	test := e.annTest(op.batch)
	exact := make([][]float64, test.N())
	for i := range exact {
		vals, err := exactRun.value(nil, train, sliceRows(test, i, i+1), pre, k, "exact", 0)
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("exact reference: %v", err))
			return r
		}
		exact[i] = vals
	}
	got := lshRun.annValue(nil, "", train, test, k, c.Eps, query, func(i int, ids []int, values []float64) {
		if maxAbsDiff(values, exact[i]) <= c.Eps {
			return
		}
		r.misses++
		if containsAll(ids, knn.Neighbors(train.X, test.X[i], core.KStar(k, c.Eps), vec.L2)) {
			r.failures = append(r.failures, fmt.Sprintf("test point %d has all its K* nearest neighbors but is more than eps from exact", i))
		}
	})
	if bitsHash(got) != op.hash {
		r.failures = append(r.failures, "the per-point replay differs from the op's values")
	}
	return r
}

// containsAll reports whether ids holds every element of want.
func containsAll(ids, want []int) bool {
	for _, w := range want {
		if !slices.Contains(ids, w) {
			return false
		}
	}
	return true
}

// replayPair runs a stateless replay untraced and traced (alternating which
// goes first), checks both against want and returns the two wall times.
func replayPair(tr *tracer, op int, run func(*tracer) []float64, e *env, want []float64) (plain, traced time.Duration) {
	runPlain := func() {
		start := time.Now()
		got := run(nil)
		plain = time.Since(start)
		e.checkReplay(op, got, nil, want)
	}
	runTraced := func() {
		tr.setOp(op)
		start := time.Now()
		root := tr.begin("op")
		got := run(tr)
		tr.end(root)
		traced = time.Since(start)
		e.checkReplay(op, got, nil, want)
	}
	if op%4 < 2 {
		runTraced()
		runPlain()
	} else {
		runPlain()
		runTraced()
	}
	return plain, traced
}

// storedPayload reads one persisted index payload from the store.
func storedPayload(st *registry.IndexStore, datasetID, kind, key string) ([]byte, error) {
	h, ok := st.Get(datasetID, kind, key)
	if !ok {
		return nil, fmt.Errorf("%s index %q not persisted", kind, key)
	}
	defer h.Release()
	return append([]byte(nil), h.Payload()...), nil
}

// timedStore times the index store calls a Valuer makes, from outside.
type timedStore struct {
	inner      knnshapley.IndexStore
	mu         sync.Mutex
	gets, puts []float64
	spent      time.Duration
}

func (s *timedStore) note(list *[]float64, d time.Duration) {
	s.mu.Lock()
	*list = append(*list, ms(d))
	s.spent += d
	s.mu.Unlock()
}

// total is the time spent in store calls so far (0 for a nil store).
func (s *timedStore) total() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spent
}

func (s *timedStore) GetIndex(dataset, kind, key string) (io.ReadCloser, bool) {
	start := time.Now()
	rc, ok := s.inner.GetIndex(dataset, kind, key)
	s.note(&s.gets, time.Since(start))
	return rc, ok
}

func (s *timedStore) PutIndex(dataset, kind, key string, blob []byte) error {
	start := time.Now()
	err := s.inner.PutIndex(dataset, kind, key, blob)
	s.note(&s.puts, time.Since(start))
	return err
}

func (s *timedStore) HasIndex(dataset, kind, key string) bool {
	return s.inner.HasIndex(dataset, kind, key)
}

// bitsHash is the FNV-1a hash of the values' bits; it allocates nothing, so
// hashing inside the timed phase leaves the heap alone.
func bitsHash(values []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range values {
		b := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h = (h ^ (b >> i & 0xff)) * 1099511628211
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
