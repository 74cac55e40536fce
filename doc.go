// Package knnshapley computes task-specific data valuations — Shapley values
// of individual training points (or data sellers) — for K-nearest-neighbor
// models, implementing "Efficient Task-Specific Data Valuation for Nearest
// Neighbor Algorithms" (Jia et al., VLDB 2019).
//
// # Why KNN Shapley values
//
// The Shapley value is the unique revenue-division scheme satisfying group
// rationality, fairness and additivity, but for general models it takes
// O(2^N) utility evaluations. For KNN utilities this package computes it
//
//   - exactly in O(N log N) for unweighted KNN classification and regression
//     (Theorems 1 and 6 — the paper's headline result),
//   - approximately in sublinear time via locality-sensitive hashing when an
//     (ε,δ) error is acceptable (Theorems 2–4),
//   - exactly in polynomial time for weighted KNN and seller-level games
//     (Theorems 7–8), with a fast Monte-Carlo estimator (Algorithm 2,
//     Theorem 5) for when the polynomial cost is still too high,
//   - and for composite games that value the computation provider (the
//     "analyst") alongside the data sellers (Theorems 9–12).
//
// # Quick start: sessions and one declarative entry point
//
// The unit of work is a valuation session, the Valuer: construct it once
// per training set with functional options, then issue as many valuations
// as you like against it. Construction validates the data and packs it
// into contiguous row-major storage a single time; the LSH and k-d indexes
// behind the sublinear methods are built lazily on first use and cached in
// the session.
//
//	train, test := /* your data */, /* held-out queries */
//	v, err := knnshapley.New(train, knnshapley.WithK(5))
//	rep, err := v.Exact(ctx, test)
//	// rep.Values[i] is the value of training point i; Σ = ν(I) − ν(∅).
//
// Behind every named method sits one entry point, Evaluate, and a
// declarative request: which method, with which parameters, against which
// test set. Each algorithm is a registered Method whose typed parameter
// struct (ExactParams, TruncatedParams{Eps}, MCParams, SellerParams,
// LSHParams, …) knows how to validate itself (Validate), how to identify
// its computation for result caches (CacheKey) and how to run
// (Run(ctx, *Valuer, *Dataset)):
//
//	rep, err := v.Evaluate(ctx, knnshapley.Request{
//	    Params: knnshapley.MCParams{Eps: 0.1, Delta: 0.1, Seed: 7},
//	    Test:   test,
//	})
//	rep, err = v.Evaluate(ctx, knnshapley.Request{Method: "exact", Test: test})
//
// The named methods (v.Exact, v.Truncated, v.MonteCarlo, v.Sellers,
// v.SellersMC, v.Composite, v.LSH, v.KD, v.BaselineMonteCarlo, v.Utility)
// are thin wrappers over Evaluate and produce bit-identical values (pinned
// by TestEvaluateMatchesMethodsBitIdentical); dispatch costs well under a
// microsecond per request (TestEvaluateDispatchOverhead enforces < 1µs).
//
// The package registry (Register, Lookup, Methods) is what makes methods
// discoverable: each exposes a machine-readable MethodSchema (parameter
// names, types, required flags, defaults, bounds) that cmd/svserver serves
// as GET /methods and "svcli methods" renders. Registering a new Method —
// one Register call plus a kernel — makes it reachable from Evaluate, the
// wire protocol and the CLI with no transport changes.
//
// Every report is unified: *Report carries the values plus how they were
// computed (Method, Duration, Fingerprint — the training set's content
// hash — TestPoints, CacheHit for cache-served results, and, where
// applicable, Permutations, Budget, UtilityEvals, KStar, Analyst).
// Canceling the context (client disconnect, deadline) aborts an in-flight
// valuation within one engine batch, and within one permutation inside the
// Monte-Carlo loops, returning ctx.Err(). Wrapping the context with
// ContextWithProgress makes the engine report test points processed after
// every batch — per-call progress that works even on a Valuer shared by
// many concurrent callers.
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	mc, err := v.MonteCarlo(ctx, test, knnshapley.MCParams{Eps: 0.1, Delta: 0.1})
//
// A Valuer is safe for concurrent use; cmd/svserver holds one per request
// and serves every algorithm behind a deadline-propagating HTTP handler.
//
// # Execution model: one engine, pluggable kernels, batched streaming
//
// Every valuation method runs on a single internal execution engine. The
// engine owns a pool of WithWorkers goroutines (created before any work
// is enqueued), streams test points from a producer in batches of
// WithBatchSize, and dispatches each test point to a pluggable
// per-test-point kernel (exact classification, exact regression,
// truncated, weighted counting, Monte Carlo permutation sampling,
// seller-level games). Per-worker scratch buffers are reused across test
// points, so the hot paths are allocation-free. While the pool waits, a
// large batch's distance scan is split into runs of training rows
// (float64) or of four-test-point groups (float32) and its reduce into
// value-index ranges, each over up to WithWorkers goroutines, so at most
// WithWorkers goroutines compute at once. Every
// value index still sums the per-test-point results in stream order, and
// no query's distances depend on the split, so outputs are bit-identical
// for any worker count or batch size. Small batches (a few test points, or
// a small training set) stay serial. The run's context is checked at every
// batch boundary.
//
// Distances are never materialized for the whole test set at once: the
// streaming producer computes one batch of test×train distances at a time,
// so peak memory is BatchSize·N distances instead of Ntest·N. BatchSize
// defaults to 64; raise it for throughput on small training sets, lower it
// to cap memory on huge ones.
//
// # Performance: norm-precompute distances, float32 mode, partial top-K
//
// The distance scan is restructured around the norm-precompute identity
// ‖a−q‖² = ‖a‖² + ‖q‖² − 2·a·q: per-row training norms are computed once
// per session and cached, reducing the inner loop to a pure dot product —
// one GEMV-shaped sweep of the training matrix per group of eight test
// points in assembly on amd64 with AVX (detected at startup), or four with
// a bit-identical pure-Go summation tree everywhere else, amd64 without
// AVX included. Every dot product uses the same fixed
// summation tree regardless of platform, batching or worker count, which
// is what keeps valuations bit-reproducible. After the scan, the
// truncated method selects its K* nearest with a partial top-K heap
// instead of sorting all N, and the exact recursion bucket-sorts the
// distances straight into the packed ranking it walks.
//
// WithPrecision(Float32) opts a session into float32 compute: the
// training set is mirrored to float32 once, the distance scan runs in
// float32 (half the memory traffic: about 1.4× faster with the AVX
// kernels, no faster on the portable Go trees), and each
// squared distance is widened to float64 on store so ranking, recursion
// and reported values flow through unchanged code. The default Float64
// mode is bit-for-bit unaffected. Tolerance contract: a float32 squared
// distance carries relative error O(dim·2⁻²⁴); a near-tie it reorders
// moves a value by at most 1/K, and the efficiency identity
// Σ values = ν(I) − ν(∅) holds in both modes. The wire protocol exposes
// the mode as "precision": "float32". See README.md for measured numbers
// (the committed BENCH_*.json trajectory).
//
// Feature storage is flat row-major: datasets built by the package
// constructors hold all rows in one contiguous []float64 (rows are views
// into it), which is what the blocked distance kernels operate on. Datasets
// assembled by hand from [][]float64 still work — they take the row-wise
// fallback path.
//
// # Serving: dataset registry, background jobs, result caching
//
// cmd/svserver exposes the sessions over HTTP through internal/server,
// which owns every route. Datasets are first-class
// server-side objects in a content-addressed registry
// (internal/registry): POST /datasets stores a dataset once under its
// content fingerprint — persisted on disk in the compact binary format of
// WriteBinary/ReadBinary (magic "KNNS", shape header, contiguous
// little-endian float64 feature block, responses; bit-exact round trip),
// with a byte-budget LRU of decoded payloads in memory — and valuation
// requests reference it by ID ("trainRef"/"testRef") instead of
// re-shipping it as JSON. Uploads are idempotent, the store survives
// restarts, GET/DELETE /datasets manage it (an octet-stream Accept header
// downloads the binary back), deletion is refcounted so a running job
// keeps its data, and a disk budget reclaims least-recently-used unpinned
// datasets so auto-registration cannot grow the directory without bound.
// A stored file that fails verification fails one request and is dropped
// (the ID then answers 404 until the content is uploaded again), and the
// temp files of an interrupted write are removed when the directory is
// opened. Inline payloads still work and are auto-registered.
//
// Valuations run through a bounded-worker job manager (internal/jobs):
// POST /jobs enqueues a valuation and returns a job id, GET /jobs/{id}
// reports state (queued, running, done, failed, canceled) and progress
// (test points processed, fed by the engine's progress callback),
// GET /jobs/{id}/result returns the report, and DELETE /jobs/{id} cancels
// mid-flight through the context plumbing above. Results are cached in an
// LRU keyed directly on the registry IDs plus the algorithm and its
// parameters, and Valuer sessions are keyed on the training-set ID — a
// by-reference request is a pair of registry lookups landing on a warm
// session, with no payload decode, re-validation or re-fingerprinting;
// identical resubmissions are answered from memory without touching the
// engine (the replayed report is marked CacheHit with the near-zero lookup
// duration). Result-cache keys are built from Params.CacheKey, so
// semantically identical requests hit regardless of entry point or
// spelling. The synchronous POST /value remains as a submit-and-wait
// wrapper over the same manager (a canceled valuation returns a 499-style
// JSON error with "canceled": true), and GET /methods publishes the param
// schema of every served algorithm. See the command's package comment
// for the wire format, examples/jobqueue for the job manager driven
// in-process, and examples/registry for the upload-once/value-many stack.
//
// The job queue is crash-durable: a write-ahead journal (internal/journal)
// records every accepted submission — as a self-contained envelope of
// method, canonical parameters and dataset refs — and every state
// transition, in CRC-framed, rotated, compacted segment files under the
// server's data directory. After a crash the journal replays: interrupted
// jobs are re-submitted under their original IDs (recomputing
// bit-identical values against the same content-addressed datasets), and
// finished jobs inside the retention TTL come back as queryable history. A
// graceful shutdown drains and journals the remaining jobs as canceled, so
// only a hard kill leaves work to resurrect.
//
// # Incremental valuation: dataset versions and O(ΔN) revaluation
//
// Datasets version: PUT /datasets/{id}/delta derives a child from a stored
// parent by appending rows (inline or by registry ref) and/or removing
// parent row indices. The child lands under its own content fingerprint
// (identical content dedups regardless of edit path) and the derivation is
// recorded as a lineage edge (parent ID, rows appended/removed), journaled
// like a job so a restarted server re-derives the same children. "svcli
// delta" drives the endpoint from CSVs.
//
// Valuing a versioned dataset is incremental (internal/cluster's
// Incremental + RankCache): the first exact or truncated valuation caches
// each test point's full sorted neighbor ranking and its distances, keyed
// on (train ID, test ID, K, metric, precision). A later valuation of a
// child whose lineage parent's ranking is cached patches that ranking —
// appended rows are distance-scanned (ΔN·d work), merged into
// the sorted lists under the engine's exact comparison key as a sparse
// overlay; removals filter the lists — and the KNN-Shapley recurrence is
// replayed with the engine's own walker over the spliced ranking, O(N)
// adds rather than a fresh O(N·d) scan and O(N log N) sort (a truncated
// valuation with K* < N walks only the spliced K* prefix). Incremental
// values are bit-identical to valuing the child from scratch (pinned across
// append/remove/mixed edits and both methods); svbench's delta_append_dn10
// record measures re-valuing after a 10-row append at N=1e5 at ~50× faster
// than the from-scratch scan. The RankCache is a segmented LRU under its
// byte budget: a new ranking enters a probation segment of an eighth of the
// budget, and its first reuse (a replay, or a patch off it as a lineage
// parent) moves it to the protected segment. One-off valuations therefore
// cycle through probation alone, while each link of a delta chain is
// promoted when its child patches off it. See examples/streaming for the
// arrival-stream shape of a data market driven through the delta API.
//
// # Index persistence and the algo=auto planner
//
// The LSH and k-d indexes behind the sublinear methods no longer die with
// their session. A Valuer built WithIndexStore (OpenIndexDir for a
// directory, or cmd/svserver's shared registry-side store) persists every
// index it builds as a serialized, CRC-verified container keyed on the
// training set's content fingerprint plus the index's canonical
// parameters, and a later session — including one in a freshly restarted
// process — reloads the artifact instead of rebuilding it. An LSH table is
// stored as flat CSR arrays (sorted bucket keys, offsets, one id array), so
// its reload is a read, a CRC and an O(N) validation per table; a k-d
// reload is a sequential read and reconstruction. Both cost a small
// fraction of the build (README, "Index persistence");
// EnsureIndex builds or reloads eagerly, which is what cmd/svserver's
// POST /indexes exposes as a journaled background job. Artifacts live in
// the same kind of file store as the datasets (internal/registry): they
// are refcounted, reclaimed least-recently-used under a disk budget,
// checked by header when the directory is opened and in full on load (a
// corrupt file is dropped and rebuilt, never served), and deleted when
// their dataset is deleted.
//
// LSH queries run in groups: the LSH method splits each engine batch's test
// points over the workers, and each part queries the index up to eight
// points per pass over its tables (lsh.Index.QueryGroup). A table's
// projections are then read once per pair of queries and the bucket
// lookups overlap; the values are bit for bit those of one query at a time.
//
// On top of the store sits a planner: Request{Method: "auto"} (AutoParams
// {Eps, Delta, Seed}) predicts the wall-clock cost of every method able to
// serve the session's workload at the requested tolerance — interpolating
// a committed calibration grid over (N, dim) log-log, rescaled to the host
// by a one-time micro-probe, and charging LSH/k-d only the reload fraction
// when their index is already persisted — then runs the cheapest. Within
// the model's uncertainty margin it falls back to exact (more margin
// demanded outside the calibration hull), eps = 0 demands exact values,
// and delta = 0 restricts the choice to zero-failure-probability methods.
// The Report's Plan field records the decision and every estimate behind
// it; internal/planner's tests pin auto's pick to the empirically fastest
// method across the whole calibration grid.
//
// # Cluster mode: sharded scatter-gather valuation
//
// Several svservers compose into one service (internal/cluster): a
// coordinator (svserver -coordinator -peers=...) places content-addressed
// dataset shards on worker peers with a consistent-hash ring, pushes
// missing datasets by fingerprint (idempotent), fans an exact or
// truncated valuation out as per-shard sub-jobs over the by-ref wire
// protocol, and k-way-merges the shards' sorted neighbor lists under the
// engine's exact ordering before running the single-node engine's
// recurrence kernel over them — so distributed values are bit-identical to
// a single-node run and share its result cache. Failed peers are probed, marked down and their
// shards reassigned; with no peers healthy the coordinator computes
// locally. GET /cluster/statz reports the topology and GET /metrics
// exposes every counter as Prometheus text. See the internal/server
// package comment for the protocol details.
//
// See the examples/ directory for runnable end-to-end scenarios (data
// debugging, data markets, streaming valuation) and cmd/svbench for the
// harness that regenerates every table and figure of the paper's evaluation
// (plus -benchjson for the machine-readable perf trajectory, including the
// inline-vs-by-ref wire comparison, the sharded scatter-gather records,
// the incremental delta_append records and the index build/load and
// auto-planner records).
package knnshapley
