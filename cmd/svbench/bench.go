package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"knnshapley"
	"net/http/httptest"

	"knnshapley/internal/cluster"
	"knnshapley/internal/dataset"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
	"knnshapley/internal/vec"
	"knnshapley/internal/wire"
)

// benchRecord is one micro-benchmark measurement. NsPerOp is nanoseconds
// per test point for the valuation benchmarks, per full scan for the
// storage benchmarks, and per request for the wire benchmarks, so numbers
// stay comparable across N. BytesOnWire is the request body size for the
// wire benchmarks (the upload-once/value-many comparison).
type benchRecord struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	Dim         int    `json:"dim"`
	NTest       int    `json:"ntest,omitempty"`
	NsPerOp     int64  `json:"nsPerOp"`
	TotalNs     int64  `json:"totalNs"`
	BytesOnWire int64  `json:"bytesOnWire,omitempty"`
	// BaselineNsPerOp is the same measurement with the feature under test
	// switched off (journal_overhead: submit→done latency without a journal;
	// index_load_*: the fresh build the reload replaces) so the record
	// carries its own overhead — or speedup — ratio.
	BaselineNsPerOp int64 `json:"baselineNsPerOp,omitempty"`
	// Picked is the method algo=auto chose (auto_* records only).
	Picked string `json:"picked,omitempty"`
}

// benchReport is the BENCH_1.json schema.
type benchReport struct {
	Schema    string        `json:"schema"`
	GoVersion string        `json:"goVersion"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Results   []benchRecord `json:"results"`
}

const (
	benchDim   = 64
	benchNTest = 16
	benchK     = 5
)

// timeOp runs f once after a warm-up call at the smallest size has primed
// the code paths, returning elapsed nanoseconds.
func timeOp(f func() error) (int64, error) {
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return time.Since(start).Nanoseconds(), nil
}

// oneShot returns a valuation on a fresh session, New included, so the
// valuation records time the cold cost of a caller without a held Valuer.
func oneShot(train, test *knnshapley.Dataset, p knnshapley.Method, opts ...knnshapley.Option) func() error {
	return func() error {
		v, err := knnshapley.New(train, append([]knnshapley.Option{knnshapley.WithK(benchK)}, opts...)...)
		if err != nil {
			return err
		}
		_, err = v.Evaluate(context.Background(), knnshapley.Request{Params: p, Test: test})
		return err
	}
}

// runBenchJSON measures the engine's headline paths and writes the records
// to path. maxN > 0 drops the sweep sizes above it — the CI smoke run uses
// this to stay fast while keeping the schema identical to the full run.
func runBenchJSON(path string, maxN int) error {
	rep := benchReport{
		Schema:    "svbench/1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, n := range []int{1000, 10000, 100000} {
		if maxN > 0 && n > maxN {
			continue
		}
		train := dataset.MNISTLike(n, 1)
		test := dataset.MNISTLike(benchNTest, 2)

		ns, err := timeOp(oneShot(train, test, knnshapley.ExactParams{}))
		if err != nil {
			return fmt.Errorf("exact n=%d: %w", n, err)
		}
		exactNsPerOp := ns / benchNTest
		rep.Results = append(rep.Results, benchRecord{
			Name: "exact", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: exactNsPerOp, TotalNs: ns,
		})

		// Same exact valuation in the float32 compute mode: half the scan
		// bandwidth, distances within single-precision rounding.
		ns, err = timeOp(oneShot(train, test, knnshapley.ExactParams{},
			knnshapley.WithPrecision(knnshapley.Float32)))
		if err != nil {
			return fmt.Errorf("exact_f32 n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, benchRecord{
			Name: "exact_f32", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: ns / benchNTest, TotalNs: ns,
		})

		ns, err = timeOp(oneShot(train, test, knnshapley.TruncatedParams{Eps: 0.01}))
		if err != nil {
			return fmt.Errorf("truncated n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, benchRecord{
			Name: "truncated_eps0.01", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: ns / benchNTest, TotalNs: ns,
		})

		ns, err = timeOp(oneShot(train, test,
			knnshapley.MCParams{Bound: knnshapley.Fixed, T: 10, Seed: 1}))
		if err != nil {
			return fmt.Errorf("montecarlo n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, benchRecord{
			Name: "montecarlo_t10", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: ns / benchNTest, TotalNs: ns,
		})

		// Storage/kernel comparison, all per one query·training-set scan:
		// the norm-precompute GEMV kernel over the flat matrix (float64 and
		// float32 storage, norms precomputed outside the timer — the
		// per-session cost a Valuer amortizes) vs the definitional
		// row-at-a-time scan over independently-allocated rows.
		flat, ok := train.Flat()
		if !ok {
			return fmt.Errorf("train dataset not contiguous")
		}
		testFlat, ok := test.Flat()
		if !ok {
			return fmt.Errorf("test dataset not contiguous")
		}
		scattered := make([][]float64, train.N())
		for i := range scattered {
			scattered[i] = append([]float64(nil), train.X[i]...)
		}
		norms := vec.SqNorms(nil, flat, train.N(), train.Dim())
		flat32 := vec.ToFloat32(nil, flat)
		norms32 := vec.SqNorms32(nil, flat32, train.N(), train.Dim())
		testFlat32 := vec.ToFloat32(nil, testFlat)
		out := make([]float64, benchNTest*train.N())
		const reps = 50
		start := time.Now()
		for r := 0; r < reps; r++ {
			vec.SqL2NormDotBatch(out, flat, train.N(), train.Dim(), norms, testFlat, benchNTest)
		}
		normdotNs := time.Since(start).Nanoseconds() / (reps * benchNTest)
		rep.Results = append(rep.Results, benchRecord{
			Name: "distscan_normdot", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: normdotNs, TotalNs: normdotNs * reps * benchNTest,
		})
		start = time.Now()
		for r := 0; r < reps; r++ {
			vec.SqL2NormDotBatch32(out, flat32, train.N(), train.Dim(), norms32, testFlat32, benchNTest)
		}
		normdot32Ns := time.Since(start).Nanoseconds() / (reps * benchNTest)
		rep.Results = append(rep.Results, benchRecord{
			Name: "distscan_normdot32", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: normdot32Ns, TotalNs: normdot32Ns * reps * benchNTest,
		})
		q := test.X[0]
		start = time.Now()
		for r := 0; r < reps; r++ {
			vec.Distances(vec.SquaredL2, scattered, q, out[:train.N()])
		}
		sliceNs := time.Since(start).Nanoseconds() / reps
		rep.Results = append(rep.Results, benchRecord{
			Name: "distscan_slices", N: n, Dim: train.Dim(), NsPerOp: sliceNs, TotalNs: sliceNs * reps,
		})

		// Serving-path comparison: what one request costs the server before
		// any valuation happens — inline (decode the full JSON payload,
		// validate, flatten, fingerprint) vs by-ref (resolve two registry
		// IDs). This is the upload-once/value-many split of the dataset
		// registry, measured at the wire/registry layer without HTTP
		// overhead; cmd/svserver's BenchmarkValueInline/ByRef cover the full
		// handler stack.
		wireRecs, err := benchWire(n, train, test)
		if err != nil {
			return fmt.Errorf("wire n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, wireRecs...)

		shardRecs, err := benchSharded(n, train, test)
		if err != nil {
			return fmt.Errorf("sharded n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, shardRecs...)

		// Incremental revaluation after a delta: what re-valuing a versioned
		// child costs against the cached parent ranking, vs the from-scratch
		// exact scan at the same N (BaselineNsPerOp).
		deltaRecs, err := benchDelta(n, train, test, exactNsPerOp)
		if err != nil {
			return fmt.Errorf("delta n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, deltaRecs...)

		// Persisted-index economics: what a fresh LSH/k-d build costs vs
		// reloading the serialized artifact from the on-disk store
		// (BaselineNsPerOp = the build the reload replaces; the ratio is the
		// restart dividend the index store exists for).
		indexRecs, err := benchIndex(n, train)
		if err != nil {
			return fmt.Errorf("index n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, indexRecs...)

		// The algo=auto planner end to end: decision + chosen method's run,
		// with the pick recorded so the trajectory shows where the crossover
		// lands on this host.
		autoRec, err := benchAuto(n, train, test)
		if err != nil {
			return fmt.Errorf("auto n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, autoRec)
	}

	// Dispatch cost of the declarative entry point: Valuer.Evaluate's
	// registry lookup + validation + interface call must stay under 1 µs
	// per request on top of a direct method call (size-independent, so
	// measured once).
	dispatchRecs, err := benchDispatch()
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	rep.Results = append(rep.Results, dispatchRecs...)

	// Durability tax of the write-ahead job journal: the same submit→done
	// job latency with and without the journal in its batched-fsync mode
	// (size-independent, so measured once at the smallest sweep size).
	journalRec, err := benchJournal()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	rep.Results = append(rep.Results, journalRec)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// noopMethod is a registered do-nothing method, so "evaluate_dispatch"
// times exactly the Evaluate machinery (lookup, validate, dispatch) and
// not an algorithm.
type noopMethod struct{}

func (noopMethod) Name() string { return "svbench-noop" }
func (noopMethod) Schema() knnshapley.MethodSchema {
	return knnshapley.MethodSchema{Name: "svbench-noop", Description: "dispatch-overhead probe",
		Params: []knnshapley.ParamSpec{}}
}
func (noopMethod) Validate() error  { return nil }
func (noopMethod) CacheKey() string { return "" }
func (noopMethod) Run(ctx context.Context, v *knnshapley.Valuer, test *knnshapley.Dataset) (*knnshapley.Report, error) {
	return &knnshapley.Report{Method: "svbench-noop"}, nil
}

// benchDispatch compares a direct method call against the same valuation
// through Evaluate ("evaluate_direct" vs "evaluate_wrapped", per request
// over the full exact run) and isolates the pure dispatch cost against a
// no-op method ("evaluate_dispatch", per request; must stay < 1 µs —
// TestEvaluateDispatchOverhead enforces it).
func benchDispatch() ([]benchRecord, error) {
	knnshapley.Register(noopMethod{})
	train := dataset.MNISTLike(256, 1)
	test := dataset.MNISTLike(benchNTest, 2)
	v, err := knnshapley.New(train, knnshapley.WithK(benchK))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	const reps = 20
	if _, err := v.Exact(ctx, test); err != nil { // warm up
		return nil, err
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := v.Exact(ctx, test); err != nil {
			return nil, err
		}
	}
	directNs := time.Since(start).Nanoseconds() / reps

	req := knnshapley.Request{Params: knnshapley.ExactParams{}, Test: test}
	start = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := v.Evaluate(ctx, req); err != nil {
			return nil, err
		}
	}
	wrappedNs := time.Since(start).Nanoseconds() / reps

	const iters = 200000
	noop := knnshapley.Request{Method: "svbench-noop", Test: test}
	if _, err := v.Evaluate(ctx, noop); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := v.Evaluate(ctx, noop); err != nil {
			return nil, err
		}
	}
	dispatchTotal := time.Since(start).Nanoseconds()

	return []benchRecord{
		{Name: "evaluate_direct", N: train.N(), Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: directNs, TotalNs: directNs * reps},
		{Name: "evaluate_wrapped", N: train.N(), Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: wrappedNs, TotalNs: wrappedNs * reps},
		{Name: "evaluate_dispatch", N: iters,
			NsPerOp: dispatchTotal / iters, TotalNs: dispatchTotal},
	}, nil
}

// benchSharded measures the scatter-gather serving path end to end: three
// in-process svserver peers (internal/server, each over its own temp data
// dir) behind real HTTP servers, one coordinator, and an
// exact valuation split into per-peer shards and merged bit-identically. The
// warm-up request pushes both datasets (upload-once, like wire_byref); the
// timed requests are pure by-ref scatter-gather, so NsPerOp is what one
// distributed valuation costs per test point and BytesOnWire is the gathered
// shard-report bytes per request — the exact method ships full per-shard
// neighbor rankings, which is the dominant wire cost of the merge protocol.
// Two records over the same worker set: "wire_sharded" with the default
// gzip report transfer, "wire_sharded_nogzip" with compression disabled, so
// the report carries the on-wire bytes before and after compression.
func benchSharded(n int, train, test *dataset.Dataset) ([]benchRecord, error) {
	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}()
	var urls []string
	for i := 0; i < 3; i++ {
		dir, err := os.MkdirTemp("", "svbench-peer-")
		if err != nil {
			return nil, err
		}
		cleanups = append(cleanups, func() { os.RemoveAll(dir) })
		peer, err := server.New(server.Config{MaxBody: 64 << 20, Jobs: jobs.Config{Workers: 2}, Registry: registry.Config{Dir: dir}})
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(peer.Handler())
		cleanups = append(cleanups, peer.Close, srv.Close)
		urls = append(urls, srv.URL)
	}

	run := func(name string, nogzip bool) (benchRecord, error) {
		c := cluster.New(cluster.Config{
			Peers:             urls,
			HealthInterval:    -1,
			PollInterval:      2 * time.Millisecond,
			DisableReportGzip: nogzip,
		})
		defer c.Close()

		ctx := context.Background()
		req := cluster.Request{Train: train, Test: test, Method: "exact", K: benchK}
		if _, err := c.Evaluate(ctx, req); err != nil { // warm up; pushes datasets
			return benchRecord{}, err
		}

		// Min-of-reps, not the mean: the scatter-gather path multiplexes
		// three worker servers, a coordinator and poll loops over however
		// few cores the host has, so a single descheduled poll tick can
		// multiply one repetition's wall clock. The minimum is the
		// protocol's cost; the outliers are the scheduler's.
		const reps = 3
		baseBytes := c.BytesOnWire()
		var best, total int64
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := c.Evaluate(ctx, req); err != nil {
				return benchRecord{}, err
			}
			ns := time.Since(start).Nanoseconds()
			total += ns
			if r == 0 || ns < best {
				best = ns
			}
		}
		return benchRecord{
			Name: name, N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: best / benchNTest, TotalNs: total,
			BytesOnWire: (c.BytesOnWire() - baseBytes) / reps,
		}, nil
	}

	gz, err := run("wire_sharded", false)
	if err != nil {
		return nil, err
	}
	raw, err := run("wire_sharded_nogzip", true)
	if err != nil {
		return nil, err
	}
	return []benchRecord{gz, raw}, nil
}

// benchDelta measures the incremental revaluation path: the parent ranking
// is built and cached untimed, then for each ΔN a chain of versioned
// children is derived via registry.ApplyDelta (append ΔN rows each) and the
// revaluation of each child — the O(ΔN·D + N) scan-patch-replay riding the
// previous version's cached ranking, the arrival-stream workload — is
// timed. NsPerOp is per test point per revaluation; BaselineNsPerOp carries
// the from-scratch exact per-point cost measured at the same N earlier in
// the sweep, so each record is its own speedup ratio.
func benchDelta(n int, train, test *dataset.Dataset, exactNsPerOp int64) ([]benchRecord, error) {
	reg, err := registry.New(registry.Config{})
	if err != nil {
		return nil, err
	}
	ph, _, err := reg.Put(train)
	if err != nil {
		return nil, err
	}
	defer ph.Release()
	th, _, err := reg.Put(test)
	if err != nil {
		return nil, err
	}
	defer th.Release()

	// Every chained version is retained, and each entry's accounted bytes
	// conservatively double-count the shared base, so give the cache enough
	// budget that no link of a chain is evicted mid-measurement (an eviction
	// would silently degrade a patch to a from-scratch scan — checked below).
	inc := cluster.NewIncremental(cluster.NewRankCache(4<<30), reg)
	ctx := context.Background()
	baseReq := cluster.Request{
		Train: ph.Dataset(), Test: th.Dataset(),
		TrainID: ph.ID(), TestID: th.ID(),
		Method: "exact", K: benchK,
	}
	if _, err := inc.Values(ctx, baseReq); err != nil { // build parent entry, untimed
		return nil, err
	}
	// Prime the patch path (allocator, page faults) on a throwaway child, the
	// same warm-up convention every timeOp measurement in the sweep follows.
	warm, _, _, err := reg.ApplyDelta(ph.ID(), registry.Delta{Append: dataset.MNISTLike(1, 99)})
	if err != nil {
		return nil, err
	}
	wreq := baseReq
	wreq.Train, wreq.TrainID = warm.Dataset(), warm.ID()
	if _, err := inc.Values(ctx, wreq); err != nil {
		warm.Release()
		return nil, err
	}
	warm.Release()

	// Each repetition patches a fresh chain of versions (re-valuing an
	// already-seen ID would be a pure cache hit, not the patch path the
	// record is named for); min-of-reps discards GC interference, same as
	// a mid-measurement collection would never survive `go test -bench`.
	const chain = 3
	const reps = 3
	var recs []benchRecord
	for i, dn := range []int{1, 10, 1000} {
		var best int64
		for rep := 0; rep < reps; rep++ {
			parent := ph.ID()
			var handles []*registry.Handle
			for r := 0; r < chain; r++ {
				// Distinct content per link and per repetition.
				app := dataset.MNISTLike(dn, uint64(1000+100*i+10*rep+r))
				ch, _, _, err := reg.ApplyDelta(parent, registry.Delta{Append: app})
				if err != nil {
					return nil, err
				}
				handles = append(handles, ch)
				parent = ch.ID()
			}
			runtime.GC()
			ns, err := timeOp(func() error {
				for _, ch := range handles {
					creq := baseReq
					creq.Train, creq.TrainID = ch.Dataset(), ch.ID()
					if _, err := inc.Values(ctx, creq); err != nil {
						return err
					}
				}
				return nil
			})
			for _, ch := range handles {
				ch.Release()
			}
			if err != nil {
				return nil, fmt.Errorf("delta dn=%d: %w", dn, err)
			}
			if rep == 0 || ns < best {
				best = ns
			}
		}
		recs = append(recs, benchRecord{
			Name: fmt.Sprintf("delta_append_dn%d", dn), N: n, Dim: train.Dim(),
			NTest: benchNTest, NsPerOp: best / (chain * benchNTest), TotalNs: best,
			BaselineNsPerOp: exactNsPerOp,
		})
	}
	if st := inc.Stats(); st.FromScratch != 1 || st.Patches != 3*reps*chain+1 { // +1 for the warm-up child
		return nil, fmt.Errorf("delta bench did not stay on the patch path: %+v", st)
	}
	return recs, nil
}

// benchIndex measures the index store's reason to exist: a cold LSH and k-d
// build against reloading the same index from its persisted .knnsi artifact
// in a brand-new Valuer session. Build and load are whole-index operations,
// so NsPerOp is the full operation, not per test point; the load record's
// BaselineNsPerOp carries the build so each record is its own speedup
// ratio (the acceptance bar is load ≤ build/5 at N=1e5).
func benchIndex(n int, train *dataset.Dataset) ([]benchRecord, error) {
	var recs []benchRecord
	for _, kind := range []string{"lsh", "kd"} {
		dir, err := os.MkdirTemp("", "svbench-index-")
		if err != nil {
			return nil, err
		}
		store, err := knnshapley.OpenIndexDir(dir, 1<<30)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		session := func() (*knnshapley.Valuer, error) {
			return knnshapley.New(train,
				knnshapley.WithK(benchK), knnshapley.WithIndexStore(store))
		}
		measure := func() (int64, knnshapley.IndexStatus, error) {
			v, err := session()
			if err != nil {
				return 0, knnshapley.IndexStatus{}, err
			}
			start := time.Now()
			st, err := v.EnsureIndex(kind, 0.1, 0.1, 1)
			return time.Since(start).Nanoseconds(), st, err
		}
		buildNs, st, err := measure()
		if err == nil && !st.Built {
			err = fmt.Errorf("first EnsureIndex did not build (status %+v)", st)
		}
		if err == nil {
			var loadNs int64
			loadNs, st, err = measure() // fresh session, same store: pure reload
			if err == nil && !st.Loaded {
				err = fmt.Errorf("second EnsureIndex did not reload (status %+v)", st)
			}
			if err == nil {
				recs = append(recs,
					benchRecord{Name: "index_build_" + kind, N: n, Dim: train.Dim(),
						NsPerOp: buildNs, TotalNs: buildNs},
					benchRecord{Name: "index_load_" + kind, N: n, Dim: train.Dim(),
						NsPerOp: loadNs, TotalNs: loadNs, BaselineNsPerOp: buildNs})
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
	}
	return recs, nil
}

// benchAuto times one algo=auto valuation — plan (amortized: the machine
// probe ran during the warm-up) plus the chosen method — and records which
// method the planner picked on this host, so the committed trajectory shows
// where the crossovers land.
func benchAuto(n int, train, test *dataset.Dataset) (benchRecord, error) {
	v, err := knnshapley.New(train, knnshapley.WithK(benchK))
	if err != nil {
		return benchRecord{}, err
	}
	ctx := context.Background()
	req := knnshapley.Request{Params: knnshapley.AutoParams{Eps: 0.1, Seed: 1}, Test: test}
	if _, err := v.Evaluate(ctx, req); err != nil { // warm up, pay the probe
		return benchRecord{}, err
	}
	// Min-of-reps, the sweep's convention for records a scheduler stall
	// can multiply.
	const reps = 3
	var rep *knnshapley.Report
	var best, total int64
	for r := 0; r < reps; r++ {
		start := time.Now()
		var err error
		rep, err = v.Evaluate(ctx, req)
		if err != nil {
			return benchRecord{}, err
		}
		ns := time.Since(start).Nanoseconds()
		total += ns
		if r == 0 || ns < best {
			best = ns
		}
	}
	rec := benchRecord{Name: "auto_eps0.1", N: n, Dim: train.Dim(), NTest: benchNTest,
		NsPerOp: best / benchNTest, TotalNs: total}
	if rep.Plan != nil {
		rec.Picked = rep.Plan.Method
	}
	return rec, nil
}

// benchJournal measures what the write-ahead job journal costs a submitted
// job end to end: submit→done latency of a small exact valuation through the
// job manager with the journal in its batched-fsync mode ("journal_overhead",
// NsPerOp) against the identical run with no journal (BaselineNsPerOp). The
// acceptance bar is < 5% overhead — the journal's submit record is a single
// buffered append whose fsync the group-commit ticker absorbs off the
// submit path.
func benchJournal() (benchRecord, error) {
	train := dataset.MNISTLike(1000, 1)
	test := dataset.MNISTLike(benchNTest, 2)
	v, err := knnshapley.New(train, knnshapley.WithK(benchK))
	if err != nil {
		return benchRecord{}, err
	}
	ctx := context.Background()
	run := func(ctx context.Context) (*knnshapley.Report, error) { return v.Exact(ctx, test) }

	dir, err := os.MkdirTemp("", "svbench-journal-")
	if err != nil {
		return benchRecord{}, err
	}
	defer os.RemoveAll(dir)
	// The server's default group-commit interval. Shorter intervals trade
	// overhead for a narrower durability window: each fsync blocks an OS
	// thread for a device-flush (~200µs on cloud disks), and job-cycle
	// wakeups occasionally strand behind it.
	jw, _, err := journal.Open(journal.Config{Dir: dir, FsyncInterval: 25 * time.Millisecond})
	if err != nil {
		return benchRecord{}, err
	}
	defer jw.Close()
	env, err := json.Marshal(wire.JobEnvelope{
		V:       wire.JobEnvelopeVersion,
		Request: json.RawMessage(`{"algorithm":"exact","k":5,"trainRef":"svbench","testRef":"svbench"}`),
	})
	if err != nil {
		return benchRecord{}, err
	}

	// Two long-lived managers — durable and baseline — measured in small
	// alternating blocks so scheduler stalls and clock-speed drift land on
	// both sides instead of skewing whichever mode ran second. Empty
	// CacheKeys keep every job a real run.
	mgrOff := jobs.New(jobs.Config{Workers: 1, QueueDepth: 4})
	defer mgrOff.Close()
	mgrOn := jobs.New(jobs.Config{Workers: 1, QueueDepth: 4, Journal: jw})
	defer mgrOn.Close()
	cycles := func(mgr *jobs.Manager, env []byte, n int) (int64, error) {
		start := time.Now()
		for r := 0; r < n; r++ {
			j, err := mgr.Submit(jobs.Spec{Run: run, TotalUnits: benchNTest, Envelope: env})
			if err != nil {
				return 0, err
			}
			if _, err := mgr.Wait(ctx, j); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Nanoseconds(), nil
	}
	const (
		blocks   = 6
		perBlock = 25
		reps     = blocks * perBlock
	)
	var onTotal, offTotal int64
	if _, err := cycles(mgrOn, env, 1); err != nil { // warm up both paths
		return benchRecord{}, err
	}
	if _, err := cycles(mgrOff, nil, 1); err != nil {
		return benchRecord{}, err
	}
	for b := 0; b < blocks; b++ {
		ns, err := cycles(mgrOn, env, perBlock)
		if err != nil {
			return benchRecord{}, err
		}
		onTotal += ns
		if ns, err = cycles(mgrOff, nil, perBlock); err != nil {
			return benchRecord{}, err
		}
		offTotal += ns
	}

	return benchRecord{
		Name: "journal_overhead", N: train.N(), Dim: train.Dim(), NTest: benchNTest,
		NsPerOp: onTotal / reps, TotalNs: onTotal, BaselineNsPerOp: offTotal / reps,
	}, nil
}

// benchWire measures the per-request server-side dataset cost of the two
// submission modes over reps requests each: "wire_inline" re-ships and
// re-fingerprints the full training payload every time, "wire_byref"
// resolves a pre-uploaded registry ID. NsPerOp is per request; BytesOnWire
// is the JSON body size.
func benchWire(n int, train, test *dataset.Dataset) ([]benchRecord, error) {
	dir, err := os.MkdirTemp("", "svbench-registry-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg, err := registry.New(registry.Config{Dir: dir})
	if err != nil {
		return nil, err
	}

	inlineReq := wire.ValueRequest{
		Algorithm: "exact", K: benchK,
		Train: &wire.Payload{X: train.X, Labels: train.Labels},
		Test:  &wire.Payload{X: test.X, Labels: test.Labels},
	}
	inlineRaw, err := json.Marshal(inlineReq)
	if err != nil {
		return nil, err
	}

	const reps = 10
	start := time.Now()
	var trainID, testID string
	for r := 0; r < reps; r++ {
		var req wire.ValueRequest
		if err := json.Unmarshal(inlineRaw, &req); err != nil {
			return nil, err
		}
		for _, p := range []*wire.Payload{req.Train, req.Test} {
			d := &dataset.Dataset{X: p.X, Labels: p.Labels, Targets: p.Targets}
			d.Classes = train.Classes
			h, _, err := reg.Put(d) // validates, flattens, fingerprints
			if err != nil {
				return nil, err
			}
			trainID, testID = testID, h.ID() // keep the last two IDs
			h.Release()
		}
	}
	inlineNs := time.Since(start).Nanoseconds() / reps

	byrefRaw, err := json.Marshal(wire.ValueRequest{
		Algorithm: "exact", K: benchK, TrainRef: trainID, TestRef: testID,
	})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for r := 0; r < reps; r++ {
		var req wire.ValueRequest
		if err := json.Unmarshal(byrefRaw, &req); err != nil {
			return nil, err
		}
		for _, id := range []string{req.TrainRef, req.TestRef} {
			h, err := reg.Get(id)
			if err != nil {
				return nil, err
			}
			h.Release()
		}
	}
	byrefNs := time.Since(start).Nanoseconds() / reps

	return []benchRecord{
		{Name: "wire_inline", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: inlineNs, TotalNs: inlineNs * reps, BytesOnWire: int64(len(inlineRaw))},
		{Name: "wire_byref", N: n, Dim: train.Dim(), NTest: benchNTest,
			NsPerOp: byrefNs, TotalNs: byrefNs * reps, BytesOnWire: int64(len(byrefRaw))},
	}, nil
}
