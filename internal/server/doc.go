// Package server is svserver's HTTP surface: the route table, every
// handler, journal replay and the cluster shard endpoints, over one job
// manager (internal/jobs), dataset registry (internal/registry) and index
// store per Server. cmd/svserver parses the flags and runs the process
// around one Server; the flags named below are its. The cluster tests and
// svbench's sharded benchmark start real servers the same way: New, then
// serve Handler.
//
// Endpoints:
//
//	POST   /datasets         — upload a dataset (JSON or binary), get its ID
//	GET    /datasets         — list stored datasets
//	GET    /datasets/{id}    — dataset metadata (with lineage parent, if any)
//	DELETE /datasets/{id}    — delete (deferred while jobs hold it)
//	PUT    /datasets/{id}/delta — derive a versioned child (append/remove rows)
//	POST   /indexes          — build/reload one ANN index as an async job
//	GET    /indexes          — list persisted indexes
//	GET    /indexes/{id}     — one persisted index's metadata
//	DELETE /indexes/{id}     — delete a persisted index
//	POST   /jobs             — enqueue a valuation job (202 + job status)
//	GET    /jobs/{id}        — poll job status and progress
//	GET    /jobs/{id}/result — fetch the report of a done job
//	DELETE /jobs/{id}        — cancel a queued or running job
//	POST   /value            — submit-and-wait convenience wrapper
//	GET    /methods          — discover the served methods + param schemas
//	GET    /healthz          — liveness probe
//	GET    /statz            — job-manager, registry, planner and rank-cache counters
//	GET    /metrics          — the same counters in Prometheus text format
//	GET    /cluster/statz    — coordinator/worker cluster counters
//	POST   /shard/jobs       — enqueue one shard sub-job (cluster internal)
//	GET    /shard/jobs/{id}/result — binary shard report (cluster internal)
//
// Every error is a JSON {"error": ...} body, the mux's own 404 (no such
// route) and 405 (with its Allow header) included.
//
// # Dataset registry
//
// POST /datasets stores a dataset under its content fingerprint and returns
// the 16-hex-digit ID ("created": false on an idempotent re-upload of bytes
// already held). Two body formats are accepted: the JSON payload object
// ({"x": [[...]], "labels": [...]} or "targets", optional "name"), and —
// with Content-Type: application/octet-stream — the compact binary format
// of knnshapley.WriteBinary (magic "KNNS", shape header, contiguous float64
// feature block, responses; ~3–4× smaller than JSON and decoded without
// float parsing). Datasets persist under -data-dir as <id>.knnsb files and
// survive restarts; a byte-budget LRU (-mem-budget) bounds the decoded
// payloads kept in memory, with evicted datasets reloaded from disk on
// demand. DELETE hides a dataset immediately; its file is removed once the
// last running job holding it finishes.
//
// Valuation requests then carry "trainRef"/"testRef" instead of inline
// "train"/"test" payloads — the upload-once/value-many split. Inline
// payloads remain fully supported and are auto-registered on arrival; the
// response echoes their minted refs so a client can switch to by-reference
// submission after the first call. A by-ref request ships a few hundred
// bytes regardless of dataset size, resolves its datasets by ID without
// re-validating or re-fingerprinting them, and lands on the warm Valuer
// session for that training set.
//
// # Versioned datasets and incremental valuation
//
// PUT /datasets/{id}/delta derives a new dataset from a stored one without
// re-uploading it: the body names parent rows to remove and/or rows to
// append ({"append": {payload} | "appendRef": "<id>", "remove": [i, ...]}).
// The child is stored under its ordinary content fingerprint — byte-for-byte
// what a direct upload of the edited dataset would mint, so re-derivations
// are idempotent (200 instead of 201) — plus a recorded lineage edge
// ("parent" in the response and in GET /datasets/{child}).
//
// Lineage is what makes revaluation cheap. Exact and truncated
// classification valuations keep each (train, test, k, metric, precision)
// pair's full neighbor ordering in a byte-budgeted rank cache
// (-rank-cache-budget); when a valuation names a dataset whose lineage
// parent is cached, only the ΔN appended rows are distance-scanned and
// merged into the parent's ordering — O(ΔN·log N + N) instead of the full
// O(N·D) rescan — and removals tombstone in place. The replayed values are
// bit-identical to a from-scratch run (same floats, same order), so the
// incremental path shares result-cache entries with the engine and the
// cluster merge. The "incremental"/"rankCache" blocks of /statz (and the
// svserver_incremental_*/svserver_rank_cache_* series of /metrics) show
// from-scratch builds vs O(ΔN) patches. An ordering over the budget, 12
// bytes per training row and test point, is never built: that valuation
// runs the session's engine, which streams test points in batches.
//
// The rank cache is a segmented LRU. A new ordering enters a probation
// segment that holds an eighth of the budget (or its one newest ordering,
// if larger); its first reuse — a replay, or a patch off it as a lineage
// parent — promotes it to the protected segment, which is evicted least
// recently used first. So a stream of one-off valuations, each with a fresh
// test set, holds at most an eighth of the budget, while every link of a
// delta chain is read once as its child's parent and stays. The
// "rankCache" block shows the probation segment's entries and bytes and
// the promotions.
//
// Deltas ride the journaled job queue (envelope kind "delta"): a delta
// accepted before a crash re-applies on replay, and completed deltas have
// their lineage edges rebuilt at startup, so the incremental path survives
// restarts. Lineage lost anyway (TTL-expired journal, deleted parent) only
// costs speed — the valuation falls back to a full rescan.
//
// # Index persistence and the auto planner
//
// Valuer sessions build their ANN indexes (p-stable LSH tables, k-d trees)
// lazily, and every server session is attached to a persistent index store
// under -index-dir (default <data-dir>/indexes, LRU-bounded by
// -index-disk-budget): a freshly built index is serialized beside its
// dataset, keyed on the dataset's content fingerprint plus the canonical
// build parameters, and a later session — including one in a restarted
// process — reloads the bytes instead of re-tuning and rebuilding, which is
// orders of magnitude cheaper at N=1e5. DELETE /datasets/{id} cascades into
// the store, so a deleted dataset never orphans index files.
//
// POST /indexes ({"dataset": "<id>", "kind": "lsh"|"kd", "k", "eps",
// "delta", "seed"}) pays that build cost explicitly, off the query path, as
// an ordinary async journaled job: 202 + job status, progress via
// GET /jobs/{id}, the persisted artifact's metadata via
// GET /jobs/{id}/result, and crash replay from the write-ahead journal
// (envelope kind "index"). GET /indexes lists the store;
// DELETE /indexes/{id} evicts one artifact.
//
// The "auto" algorithm closes the loop: its cost-based planner predicts
// every eligible method's wall-clock from committed calibration curves —
// rescaled to the host by a one-time micro-probe, and aware of which
// indexes are already persisted — then runs the cheapest method meeting the
// requested (eps, delta), falling back to exact when the predicted win is
// within the model's uncertainty. The decision (and every estimate behind
// it) rides the result as "plan"; the "planner" block of /statz and the
// svserver_planner_* series of /metrics count this server's picks,
// fallbacks and extrapolations (a result-cache hit plans nothing), and the
// "indexes" block / svserver_index_store_* series show builds persisted vs
// reloaded.
//
// # Job lifecycle
//
// A job moves queued → running → done | failed | canceled. POST /jobs
// returns immediately with the job id; GET /jobs/{id} reports the state
// plus progress as test points processed ("done"/"total", fed by the
// engine's per-batch callback). Once done, GET /jobs/{id}/result returns
// the same body POST /value would have. DELETE /jobs/{id} cancels: a queued
// job terminates immediately, a running one as soon as the engine observes
// the canceled context (within one batch, or one Monte-Carlo permutation),
// releasing its worker. Terminal jobs stay pollable for -job-ttl. Jobs pin
// their datasets in the registry until they turn terminal; a terminal job
// keeps only its status, metadata and envelope, so an evicted session or
// dataset is not held for the TTL by the jobs that used it.
//
// POST /value is a job too, submitted and waited for. Its response carries
// no job ID, so once the values have gone out the job drops its report (or
// a cache hit's copy): GET /jobs/{id} still answers for -job-ttl, while
// GET /jobs/{id}/result is 410 Gone. Only POST /jobs results are kept for
// the TTL. /statz counts the finished jobs still holding a report and
// their bytes ("heldReports", "heldReportBytes"), and the result cache's
// bytes ("reportBytes").
//
// Results are cached in an LRU keyed directly on the registry IDs of the
// train/test sets, the algorithm and its parameters — resubmitting an
// identical request returns a job that is already done ("cacheHit": true)
// without recomputing. Worker count and batch size are deliberately not
// part of the key: the engine's ordered reduction makes values
// bit-identical across both. Valuer sessions are likewise keyed on the
// training-set ID, so repeated valuations of the same training data skip
// re-validating and re-flattening it (and share lazily built LSH/k-d
// indexes).
//
// # Crash durability
//
// With -journal (the default when -data-dir is set), every accepted job is
// recorded in a write-ahead journal under -data-dir/journal before its 202
// is returned, and every later state transition is appended as it happens
// (internal/journal: length+CRC32-framed records in rotated, compacted
// segment files). On startup the journal is replayed: jobs that were
// queued or running when the process died are re-submitted under their
// original IDs — progress restarts from zero, and a job whose dataset was
// deleted in the meantime fails with a descriptive error instead of
// silently vanishing — while terminal jobs still inside -job-ttl come back
// as retrievable history (GET /jobs/{id} answers; a done job's result
// body is not retained, so GET /jobs/{id}/result is 410 Gone). The replay
// is visible as "replayed"/"restored" counters in /statz and /metrics.
//
// -journal-fsync picks the durability window: the default 25ms batches
// fsyncs off the submit path (group commit; an accepted job can be lost if
// the machine dies within that window), 0 fsyncs inline on submit and
// terminal records before they are acknowledged, and a negative value
// never fsyncs (tests). A graceful SIGTERM drain journals the remaining
// jobs as canceled — honoring the shutdown rather than resurrecting its
// victims — so only a hard kill leaves jobs for replay.
//
// # Request format and method discovery
//
// POST /jobs and POST /value accept the same declarative body: an envelope
// (algorithm, k, metric, engine knobs, datasets inline or by ref) with the
// algorithm's own parameters inlined beside it. The parameters are decoded
// generically against the knnshapley method registry — this package contains
// no per-algorithm dispatch, and a method registered in the root package is
// served here automatically. GET /methods lists every served method with a
// machine-readable parameter schema (name, type, required, default,
// bounds); a parameter the named method does not take is a 400.
//
//	{
//	  "algorithm": "exact" | "truncated" | "montecarlo" | "baseline" |
//	               "sellers" | "sellersmc" | "composite" | "lsh" | "kd" |
//	               "utility",           // anything GET /methods lists
//	  "k": 3,
//	  "metric": "l2" | "l1" | "cosine",
//	  "workers": 0,          // engine worker pool (0 = all cores)
//	  "batchSize": 0,        // engine batch size (0 = 64)
//	  "train": {"x": [[...]], "labels": [...]},  // or "targets": [...]
//	  "test":  {"x": [[...]], "labels": [...]},
//	  "trainRef": "a1b2c3d4e5f60718",  // instead of "train"
//	  "testRef":  "18f7e6d5c4b3a291",  // instead of "test"
//	  // ...plus the method's own parameters, e.g. for montecarlo:
//	  "eps": 0.1, "delta": 0.1, "seed": 7, "t": 0,
//	  "bound": "bennett", "heuristic": false, "rangeHalfWidth": 0
//	}
//
// The result body carries the unified report of the Valuer API:
//
//	{"values": [...], "n": 100, "algorithm": "exact", "durationMs": 12,
//	 "permutations": 0, "budget": 0, "utilityEvals": 0, "kStar": 0,
//	 "analyst": 0.42, "fingerprint": "a1b2...", "cached": false,
//	 "trainRef": "a1b2c3d4e5f60718", "testRef": "18f7e6d5c4b3a291"}
//
// "n" is always the training-set size. For the per-point algorithms values
// has length n; for the seller-level games (sellers, sellersmc, composite)
// it has length m — one share per seller — with the analyst's composite
// share in "analyst".
//
// POST /value enqueues through the same manager (so it shares the caches)
// and waits; its context is canceled when the client disconnects and
// bounded by -request-timeout, and either event also cancels the underlying
// job so the worker is released. An aborted valuation returns a JSON error
// with "canceled": true and the nginx-style 499 status (504 on a server
// deadline).
//
// # Cluster mode
//
// Every svserver is a capable cluster worker: the shard endpoints are always
// mounted, so any instance can compute shard sub-jobs against its own
// registry and job manager. Starting one instance with
//
//	svserver -coordinator -peers http://w1:8080,http://w2:8080,http://w3:8080
//
// turns it into the scatter-gather front of the fleet. Exact and truncated
// classification valuations submitted to the coordinator are split into one
// training-row shard per healthy peer; each shard is a content-addressed
// sub-dataset placed on the consistent-hash ring (so the same shard lands on
// the same peers valuation after valuation, keeping their registries warm),
// pushed only if the peer does not already hold it, and computed remotely as
// an async job returning the shard's sorted neighbor lists. The coordinator
// k-way-merges those lists into the global neighbor ordering and replays the
// KNN-Shapley recursion over it — the same float operations in the same
// order as a local run, so distributed values are bit-identical to
// single-node ones (and share the same result-cache entries). Other methods,
// regression datasets and inline-payload requests run locally as before.
//
// Failure behavior: each shard is assigned a ring-ordered owner preference
// list (-replicas deep, then every remaining peer as a last resort). A peer
// that dies mid-job is marked down, its shard re-pushed and re-run on the
// next owner, and the health prober re-admits it when it returns. When no
// peer is healthy at submission time the valuation falls back to local
// single-node execution — degraded, never unavailable. GET /cluster/statz
// reports peer health and the valuation/reassignment/fallback counters;
// GET /metrics exposes the same as Prometheus text on coordinator and
// workers alike.
//
// # Counters
//
// GET /statz, GET /cluster/statz and GET /metrics render the same values.
// Each counter is declared once, as a field of the Stats type of the
// package that keeps it (jobs.Stats, registry.Stats, registry.IndexStats,
// planner.Stats, cluster.IncrementalStats, cluster.RankCacheStats and
// wire.ClusterStatz with its wire.PeerStatus rows): the json tag names its
// /statz key, the prom tag its Prometheus series and help. A field without a
// prom tag (the budgets, the rank cache's puts) stays off /metrics. Every
// family carries HELP and TYPE lines, and a name ending in _total is a
// counter.
package server
