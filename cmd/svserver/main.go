// Command svserver is the serving surface of the valuation engine: an HTTP
// daemon that computes KNN-Shapley values through the session-based Valuer
// API, executed as managed background jobs with progress, cancellation and
// result caching (internal/jobs), over a content-addressed dataset registry
// (internal/registry) so training and test sets are uploaded once and
// referenced by ID instead of re-shipped with every request.
//
// Usage:
//
//	svserver -addr :8080 -max-body 67108864 -request-timeout 60s \
//	         -job-workers 2 -job-queue 64 -job-ttl 15m -job-cache 128 \
//	         -data-dir /var/lib/svserver -mem-budget 268435456 \
//	         -journal -journal-fsync 25ms
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
// from-scratch builds vs O(ΔN) patches.
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
// their datasets in the registry for their whole lifetime.
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
// generically against the knnshapley method registry — this file contains
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
// On SIGINT/SIGTERM the server stops accepting connections, drains in-flight
// HTTP requests for -drain-timeout, then shuts the job manager down
// (canceling still-running jobs) and exits.
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
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/planner"
	"knnshapley/internal/registry"
	"knnshapley/internal/wire"
)

// statusClientClosedRequest is the nginx convention for "client closed the
// connection before the response was ready"; net/http happily writes any
// registered or unregistered 3-digit status.
const statusClientClosedRequest = 499

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxBody     = flag.Int64("max-body", 64<<20, "maximum request body in bytes")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline for the synchronous /value path (0 = none)")
		jobWorkers  = flag.Int("job-workers", 0, "concurrent valuation jobs (0 = 2)")
		jobQueue    = flag.Int("job-queue", 0, "queued-job bound before 429 (0 = 64)")
		jobTTL      = flag.Duration("job-ttl", 0, "terminal-job retention (0 = 15m)")
		jobCache    = flag.Int("job-cache", 0, "result-cache entries (0 = 128)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job compute deadline (0 = none)")
		dataDir     = flag.String("data-dir", "", "dataset registry directory (empty = a fresh temp dir)")
		memBudget   = flag.Int64("mem-budget", 0, "bytes of decoded datasets kept in memory (0 = 256 MiB)")
		diskBudget  = flag.Int64("disk-budget", 4<<30, "bytes of datasets kept on disk before LRU reclaim of unpinned ones (0 = unbounded)")
		rankBudget  = flag.Int64("rank-cache-budget", 0, "bytes of cached neighbor rankings for incremental delta valuation (0 = 256 MiB, negative disables caching)")
		indexDir    = flag.String("index-dir", "", "persisted ANN index directory (empty = <data-dir>/indexes)")
		indexBudget = flag.Int64("index-disk-budget", 1<<30, "bytes of persisted ANN indexes before LRU reclaim (0 = unbounded)")

		journalOn    = flag.Bool("journal", true, "write-ahead job journal under -data-dir/journal; queued/running jobs replay after a crash")
		journalFsync = flag.Duration("journal-fsync", 25*time.Millisecond, "journal group-commit interval (0 = fsync inline on submit/terminal records, <0 = never)")

		coordinator  = flag.Bool("coordinator", false, "scatter exact/truncated valuations across -peers instead of computing locally")
		peersFlag    = flag.String("peers", "", "comma-separated worker base URLs for -coordinator mode")
		replicas     = flag.Int("replicas", 0, "ring owners each shard is placed on (0 = 2)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()
	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "svserver-datasets-")
		if err != nil {
			log.Fatal(err)
		}
		dir = tmp
		log.Printf("svserver: dataset registry in %s (set -data-dir to persist across runs)", dir)
	}
	// The journal opens (and replays) before the job manager exists so no
	// submission can race the replay; the replayed states are applied right
	// after the server is up, before the listener accepts traffic.
	var jw *journal.Writer
	var replayStates []journal.JobState
	if *journalOn {
		ttl := *jobTTL
		if ttl <= 0 {
			ttl = 15 * time.Minute
		}
		var err error
		jw, replayStates, err = journal.Open(journal.Config{
			Dir:           filepath.Join(dir, "journal"),
			FsyncInterval: *journalFsync,
			Retain:        ttl,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	idxDir := *indexDir
	if idxDir == "" {
		idxDir = filepath.Join(dir, "indexes")
	}
	srv, err := newServer(*maxBody, *reqTimeout, jobs.Config{
		Workers:    *jobWorkers,
		QueueDepth: *jobQueue,
		TTL:        *jobTTL,
		CacheSize:  *jobCache,
		JobTimeout: *jobTimeout,
	}, registry.Config{Dir: dir, MemBudget: *memBudget, DiskBudget: *diskBudget},
		registry.IndexConfig{Dir: idxDir, DiskBudget: *indexBudget}, jw)
	if err != nil {
		log.Fatal(err)
	}
	if n := len(srv.reg.List()); n > 0 {
		log.Printf("svserver: recovered %d datasets from %s", n, dir)
	}
	if n := len(srv.indexes.List()); n > 0 {
		log.Printf("svserver: recovered %d persisted indexes from %s", n, idxDir)
	}
	if *rankBudget != 0 {
		// Re-point at a cache with the requested budget before any traffic.
		// A negative budget admits nothing, so every valuation rescans.
		srv.inc = cluster.NewIncremental(cluster.NewRankCache(*rankBudget), srv.reg)
	}
	if jw != nil {
		srv.replay(replayStates)
		jw.PurgeReplayed()
	}
	if *coordinator {
		urls := splitPeers(*peersFlag)
		if len(urls) == 0 {
			log.Fatal("svserver: -coordinator requires -peers")
		}
		srv.coord = cluster.New(cluster.Config{Peers: urls, Replicas: *replicas})
		defer srv.coord.Close()
		log.Printf("svserver: coordinating over %d peers: %s", len(urls), strings.Join(urls, ", "))
	} else if *peersFlag != "" {
		log.Fatal("svserver: -peers requires -coordinator")
	}
	// Explicit timeouts so slow clients cannot pin connections open
	// indefinitely while trickling large bodies (no WriteTimeout: big
	// valuations legitimately take a while to compute and stream back;
	// -request-timeout bounds the compute itself).
	hs := &http.Server{
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// Listen explicitly so ":0" reports the kernel-assigned port — what
	// scripts/verify.sh parses to drive the svcli-methods end-to-end check.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("svserver listening on %s", ln.Addr())

	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting
	// connections and drains in-flight requests for -drain-timeout; the job
	// manager then cancels whatever is still running. A second signal kills
	// the process the usual way (NotifyContext restores default handling
	// once stopped).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		srv.mgr.Close()
		if jw != nil {
			jw.Close()
		}
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("svserver: signal received, draining for up to %s", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("svserver: drain incomplete: %v", err)
	}
	// Close cancels the jobs still queued or running; each is journaled as
	// canceled before the journal itself closes, so a graceful shutdown
	// leaves nothing to replay — only SIGKILL does.
	srv.mgr.Close()
	if jw != nil {
		jw.Close()
	}
	log.Printf("svserver: shutdown complete")
}

// splitPeers parses the -peers flag: comma-separated URLs, blanks ignored.
func splitPeers(s string) []string {
	var urls []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}

// server carries the per-process configuration of the daemon.
type server struct {
	maxBody int64
	timeout time.Duration
	mgr     *jobs.Manager
	reg     *registry.Registry

	// indexes persists serialized ANN indexes beside their datasets; every
	// Valuer session is built with it attached, so index builds amortize
	// across sessions AND process restarts, and POST /indexes can pay the
	// build cost explicitly, off the query path.
	indexes *registry.IndexStore

	// worker serves shard sub-jobs (always mounted — any svserver can be a
	// cluster peer); coord is non-nil only in -coordinator mode and scatters
	// distributable valuations across the fleet. fallbacks counts
	// coordinator valuations degraded to local execution by ErrNoPeers.
	worker    *cluster.Worker
	coord     *cluster.Coordinator
	fallbacks atomic.Int64

	// journal is the write-ahead job journal (nil with -journal=false);
	// buildSpec only attaches durable envelopes when it is present.
	journal *journal.Writer

	// inc is the incremental evaluator: cached neighbor rankings keyed on
	// (train, test, k, metric, precision), so valuing a delta-derived
	// dataset costs O(ΔN) instead of a full rescan. Used on the local path
	// for the same methods the coordinator can scatter.
	inc *cluster.Incremental

	// plans counts this server's algo=auto decisions: each valuation job
	// whose report carries a plan records it, so result-cache hits, which
	// run nothing, count nothing.
	plans planner.Counters
}

// newServer builds a server with its own job manager and dataset registry.
// A non-nil jw makes the job manager journal-backed: submissions built by
// buildSpec carry durable envelopes, and replay() reinstalls what a crash
// left behind.
func newServer(maxBody int64, timeout time.Duration, jcfg jobs.Config, rcfg registry.Config, icfg registry.IndexConfig, jw *journal.Writer) (*server, error) {
	reg, err := registry.New(rcfg)
	if err != nil {
		return nil, err
	}
	if icfg.Dir == "" {
		icfg.Dir = filepath.Join(rcfg.Dir, "indexes")
	}
	idx, err := registry.NewIndexStore(icfg)
	if err != nil {
		return nil, err
	}
	if jw != nil {
		jcfg.Journal = jw
	}
	s := &server{maxBody: maxBody, timeout: timeout, mgr: jobs.New(jcfg), reg: reg, indexes: idx, journal: jw}
	s.worker = cluster.NewWorker(s.reg, s.mgr)
	s.inc = cluster.NewIncremental(cluster.NewRankCache(0), reg)
	return s, nil
}

// replay reinstalls journaled jobs after a restart: queued/running jobs are
// re-submitted from their envelopes (progress restarts from zero — the
// journal records submissions, not partial results), terminal jobs still
// inside TTL come back as retrievable history, and anything older is
// dropped. A job whose envelope no longer resolves — its dataset vanished
// from the registry, or the envelope version is unknown — is restored as
// failed with a descriptive error instead of replaying a corrupt run.
func (s *server) replay(states []journal.JobState) {
	now := time.Now()
	ttl := s.mgr.TTL()
	var resubmitted, restored, expired int
	for _, js := range states {
		if journal.Terminal(js.State) {
			if now.Sub(js.Finished) > ttl {
				expired++
				continue
			}
			// A completed delta left its child dataset on disk, but the
			// lineage edge died with the process; re-applying the delta
			// (idempotent — content addressing mints the same child) restores
			// it, so post-restart valuations keep the O(ΔN) path.
			if js.State == journal.StateDone {
				s.reapplyDelta(js.ID, js.Envelope)
			}
			_, err := s.mgr.Restore(jobs.Restored{
				ID:       js.ID,
				State:    jobs.State(js.State),
				Err:      js.Err,
				Lost:     js.State == journal.StateDone,
				Created:  js.Created,
				Started:  js.Started,
				Finished: js.Finished,
				Envelope: js.Envelope,
			})
			if err != nil {
				log.Printf("svserver: journal replay: restore %s: %v", js.ID, err)
				continue
			}
			restored++
			continue
		}
		// Queued or running: re-run from the envelope. "Running" is treated
		// as queued — the lost process computed nothing durable, and a
		// re-run is bit-identical by the engine's determinism contract.
		if err := s.resubmit(js); err != nil {
			log.Printf("svserver: journal replay: job %s: %v", js.ID, err)
			if _, rerr := s.mgr.Restore(jobs.Restored{
				ID:       js.ID,
				State:    jobs.StateFailed,
				Err:      fmt.Sprintf("replay after restart failed: %v", err),
				Created:  js.Created,
				Finished: now,
				Envelope: js.Envelope,
			}); rerr != nil {
				log.Printf("svserver: journal replay: fail %s: %v", js.ID, rerr)
			}
			continue
		}
		resubmitted++
	}
	if len(states) > 0 {
		log.Printf("svserver: journal replay: %d re-submitted, %d restored as history, %d expired",
			resubmitted, restored, expired)
	}
}

// resubmit re-creates one queued/running job from its journal envelope,
// re-resolving the registry handles by dataset ID through the ordinary
// buildSpec path.
func (s *server) resubmit(js journal.JobState) error {
	if len(js.Envelope) == 0 {
		return errors.New("no spec envelope in the journal")
	}
	var env wire.JobEnvelope
	if err := json.Unmarshal(js.Envelope, &env); err != nil {
		return fmt.Errorf("decode job envelope: %v", err)
	}
	if env.V != wire.JobEnvelopeVersion {
		return fmt.Errorf("job envelope version %d not supported", env.V)
	}
	switch env.Kind {
	case "", wire.JobKindValue:
		var req valueRequest
		if err := json.Unmarshal(env.Request, &req); err != nil {
			return fmt.Errorf("decode journaled request: %v", err)
		}
		spec, _, err := s.buildSpec(&req)
		if err != nil {
			return err
		}
		if _, err := s.mgr.SubmitReplayed(js.ID, *spec); err != nil {
			return err
		}
		return nil
	case wire.JobKindDelta:
		var dj wire.DeltaJob
		if err := json.Unmarshal(env.Request, &dj); err != nil {
			return fmt.Errorf("decode journaled delta: %v", err)
		}
		spec, _, err := s.deltaSpec(dj.Parent, dj.AppendRef, dj.Remove)
		if err != nil {
			return err
		}
		if _, err := s.mgr.SubmitReplayed(js.ID, *spec); err != nil {
			return err
		}
		return nil
	case wire.JobKindIndex:
		var ir wire.IndexRequest
		if err := json.Unmarshal(env.Request, &ir); err != nil {
			return fmt.Errorf("decode journaled index request: %v", err)
		}
		spec, _, err := s.indexSpec(&ir)
		if err != nil {
			return err
		}
		if _, err := s.mgr.SubmitReplayed(js.ID, *spec); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("job envelope kind %q not supported", env.Kind)
	}
}

// reapplyDelta re-applies a journaled, already-completed delta to rebuild
// its in-memory lineage edge after a restart. Best effort: content
// addressing makes the re-application idempotent, and a failure (the parent
// or append dataset has since been deleted) only costs the incremental path
// for that child, never correctness.
func (s *server) reapplyDelta(id string, envelope []byte) {
	var env wire.JobEnvelope
	if len(envelope) == 0 || json.Unmarshal(envelope, &env) != nil || env.Kind != wire.JobKindDelta {
		return
	}
	var dj wire.DeltaJob
	if err := json.Unmarshal(env.Request, &dj); err != nil {
		return
	}
	if _, err := s.applyDelta(dj.Parent, dj.AppendRef, dj.Remove); err != nil {
		log.Printf("svserver: journal replay: lineage of delta job %s not restored: %v", id, err)
	}
}

// routes wires the endpoint table.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /value", s.handleValue)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /datasets", s.handleDatasetUpload)
	mux.HandleFunc("GET /datasets", s.handleDatasetList)
	mux.HandleFunc("GET /datasets/{id}", s.handleDatasetStat)
	mux.HandleFunc("DELETE /datasets/{id}", s.handleDatasetDelete)
	mux.HandleFunc("PUT /datasets/{id}/delta", s.handleDatasetDelta)
	mux.HandleFunc("POST /indexes", s.handleIndexSubmit)
	mux.HandleFunc("GET /indexes", s.handleIndexList)
	mux.HandleFunc("GET /indexes/{id}", s.handleIndexStat)
	mux.HandleFunc("DELETE /indexes/{id}", s.handleIndexDelete)
	mux.HandleFunc("GET /methods", s.handleMethods)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /cluster/statz", s.handleClusterStatz)
	s.worker.Mount(mux)
	return mux
}

// handleMethods is GET /methods: the server-side discovery surface. It
// renders the registry's self-describing schemas — every algorithm this
// build can run, each with its parameter names, types, required flags,
// defaults and bounds — so clients enumerate capabilities instead of
// hard-coding them.
func (s *server) handleMethods(w http.ResponseWriter, r *http.Request) {
	ms := knnshapley.Methods()
	resp := wire.MethodsResponse{Methods: make([]knnshapley.MethodSchema, len(ms))}
	for i, m := range ms {
		resp.Methods[i] = m.Schema()
	}
	writeJSON(w, http.StatusOK, resp)
}

// The JSON types live in internal/wire, shared with cmd/svcli so the two
// commands cannot drift; the local aliases keep the handlers readable.
type (
	payload           = wire.Payload
	valueRequest      = wire.ValueRequest
	valueResponse     = wire.ValueResponse
	jobStatusResponse = wire.JobStatus
	errorResponse     = wire.ErrorResponse
)

// jobMeta is the submission context the result endpoint needs beyond the
// Report itself; it rides along on the job via Spec.Meta.
type jobMeta struct {
	algorithm         string
	trainN            int
	trainRef, testRef string
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// statzResponse is the body of GET /statz: the job manager's counters at the
// top level and one block per subsystem, each declared as the package
// comment's Counters section describes.
type statzResponse struct {
	jobs.Stats
	Registry    registry.Stats           `json:"registry"`
	Indexes     registry.IndexStats      `json:"indexes"`
	Planner     planner.Stats            `json:"planner"`
	Incremental cluster.IncrementalStats `json:"incremental"`
	RankCache   cluster.RankCacheStats   `json:"rankCache"`
}

func (s *server) statz() statzResponse {
	return statzResponse{
		Stats:       s.mgr.Stats(),
		Registry:    s.reg.Stats(),
		Indexes:     s.indexes.Stats(),
		Planner:     s.plans.Stats(),
		Incremental: s.inc.Stats(),
		RankCache:   s.inc.Cache().Stats(),
	}
}

// clusterStatz is the body of GET /cluster/statz: on a coordinator, peer
// health and the scatter counters; on a plain worker, its shard-job count
// with the coordinator counters at 0.
func (s *server) clusterStatz() wire.ClusterStatz {
	var st wire.ClusterStatz
	if s.coord != nil {
		st = s.coord.Statz()
	}
	st.Fallbacks = s.fallbacks.Load()
	st.ShardJobs = s.worker.ShardJobs()
	return st
}

func (s *server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statz())
}

func (s *server) handleClusterStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterStatz())
}

// handleMetrics is GET /metrics: the /statz and /cluster/statz counters in
// the Prometheus text exposition format, rendered from the same values by
// writeMetrics. Every family carries its HELP and TYPE lines.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	writeMetrics(&b, reflect.ValueOf(s.statz()))
	writeMetrics(&b, reflect.ValueOf(s.clusterStatz()))
	fmt.Fprint(w, b.String())
}

// writeMetrics renders the prom-tagged fields of the struct v, walking
// embedded and nested structs in field order; untagged fields stay off the
// page. A tag reads "name,help". A map[string]int64 tagged
// "name{label},help" is one family with a sample per key. A slice of
// structs gives one family per tagged field of its element, each sample
// labelled by the element's field tagged "{label}".
func writeMetrics(b *strings.Builder, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, tag := v.Field(i), v.Type().Field(i).Tag.Get("prom")
		switch f.Kind() {
		case reflect.Struct:
			writeMetrics(b, f)
		case reflect.Slice:
			for j := 0; j < f.Type().Elem().NumField(); j++ {
				writeFamily(b, f.Type().Elem().Field(j).Tag.Get("prom"), f.Len(), func(k int) (string, reflect.Value) {
					return labelSet(f.Index(k)), f.Index(k).Field(j)
				})
			}
		case reflect.Map:
			keys := f.MapKeys()
			sort.Slice(keys, func(a, c int) bool { return keys[a].String() < keys[c].String() })
			name, _, _ := strings.Cut(tag, ",")
			_, label, _ := strings.Cut(strings.TrimSuffix(name, "}"), "{")
			writeFamily(b, tag, len(keys), func(k int) (string, reflect.Value) {
				return fmt.Sprintf("{%s=%q}", label, keys[k].String()), f.MapIndex(keys[k])
			})
		default:
			writeFamily(b, tag, 1, func(int) (string, reflect.Value) { return "", f })
		}
	}
}

// writeFamily writes the HELP and TYPE lines of the family a tag declares
// (a name ending in _total is a counter, any other a gauge) and its n
// samples, a bool reading 1 or 0. An empty family, and a field that is
// untagged or only a label, write nothing.
func writeFamily(b *strings.Builder, tag string, n int, sample func(int) (labels string, v reflect.Value)) {
	if tag == "" || tag[0] == '{' || n == 0 {
		return
	}
	name, help, _ := strings.Cut(tag, ",")
	name, _, _ = strings.Cut(name, "{")
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for k := 0; k < n; k++ {
		labels, v := sample(k)
		x := v.Interface()
		if on, ok := x.(bool); ok {
			x = 0
			if on {
				x = 1
			}
		}
		fmt.Fprintf(b, "%s%s %v\n", name, labels, x)
	}
}

// labelSet renders the field of the struct v tagged "{label}" as a label set.
func labelSet(v reflect.Value) string {
	for i := 0; i < v.NumField(); i++ {
		if l, ok := strings.CutPrefix(v.Type().Field(i).Tag.Get("prom"), "{"); ok {
			return fmt.Sprintf("{%s=%q}", strings.TrimSuffix(l, "}"), v.Field(i).String())
		}
	}
	return ""
}

// datasetInfo maps one registry entry onto the wire type, attaching the
// parent ID for datasets minted by a delta.
func (s *server) datasetInfo(info registry.Info) wire.DatasetInfo {
	di := wire.DatasetInfo{
		ID:         info.ID,
		Name:       info.Name,
		Rows:       info.Rows,
		Dim:        info.Dim,
		Classes:    info.Classes,
		Regression: info.Regression,
		Bytes:      info.Bytes,
		InMemory:   info.InMemory,
		OnDisk:     info.OnDisk,
		Refs:       info.Refs,
		CreatedAt:  info.CreatedAt,
	}
	if lin, ok := s.reg.LineageOf(info.ID); ok {
		di.Parent = lin.Parent
	}
	return di
}

// handleDatasetUpload is POST /datasets: store the body's dataset under its
// content fingerprint. JSON payloads share the {"x": ..., "labels": ...}
// shape with inline valuation requests; Content-Type
// application/octet-stream selects the compact binary format (optionally
// named via ?name=). 201 marks new content, 200 an idempotent re-upload.
func (s *server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	var d *knnshapley.Dataset
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		var err error
		if d, err = knnshapley.ReadBinary(body); err != nil {
			writeError(w, http.StatusBadRequest, "decode binary dataset: "+err.Error())
			return
		}
		if name := r.URL.Query().Get("name"); name != "" {
			d.Name = name
		}
	} else {
		var p payload
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			writeError(w, http.StatusBadRequest, "decode dataset: "+err.Error())
			return
		}
		var err error
		if d, err = buildDataset(&p); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if d.N() == 0 {
			writeError(w, http.StatusBadRequest, "empty dataset")
			return
		}
	}
	h, created, err := s.reg.Put(d)
	if err != nil {
		writeError(w, putStatus(err), err.Error())
		return
	}
	defer h.Release()
	info, err := s.reg.Stat(h.ID())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, wire.UploadResponse{DatasetInfo: s.datasetInfo(info), Created: created})
}

func (s *server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.List()
	resp := wire.DatasetListResponse{Datasets: make([]wire.DatasetInfo, len(infos))}
	for i, info := range infos {
		resp.Datasets[i] = s.datasetInfo(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDatasetStat is GET /datasets/{id}: JSON metadata by default; with
// Accept: application/octet-stream, the dataset itself in the binary
// format (streamed from the disk tier without decoding).
func (s *server) handleDatasetStat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if strings.Contains(r.Header.Get("Accept"), "application/octet-stream") {
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := s.reg.WriteTo(w, id); err != nil {
			if errors.Is(err, registry.ErrNotFound) {
				// Nothing has been written yet (the lookup precedes any
				// output), so the error status still goes through cleanly.
				writeError(w, http.StatusNotFound, err.Error())
			} else {
				log.Printf("svserver: stream dataset %s: %v", id, err)
			}
		}
		return
	}
	info, err := s.reg.Stat(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.datasetInfo(info))
}

func (s *server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.reg.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	// Cascade: a deleted dataset must not orphan its persisted index files —
	// they are keyed on its fingerprint, so nothing could ever load them once
	// the dataset is gone.
	if n := s.indexes.DeleteDataset(id); n > 0 {
		log.Printf("svserver: deleted %d persisted indexes of dataset %s", n, id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// indexInfo maps one index-store entry onto the wire type.
func indexInfo(info registry.IndexInfo) wire.IndexInfo {
	return wire.IndexInfo{
		ID:        info.ID,
		Dataset:   info.Dataset,
		Kind:      info.Kind,
		Key:       info.Key,
		Bytes:     info.Bytes,
		Refs:      info.Refs,
		CreatedAt: info.CreatedAt,
		LastUsed:  info.LastUsed,
	}
}

// handleIndexSubmit is POST /indexes: build (or reload) one ANN index over
// an uploaded dataset as an async journaled job — the explicit way to pay an
// index's construction cost off the query path, so the first algo=auto
// valuation that wants it finds the build already amortized. Answers 202
// with the job's status; the finished job's GET /jobs/{id}/result carries
// the persisted artifact's metadata.
func (s *server) handleIndexSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.IndexRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode index request: "+err.Error())
		return
	}
	spec, status, err := s.indexSpec(&req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	job, err := s.submit(w, spec)
	if err != nil {
		return
	}
	writeJSON(w, http.StatusAccepted, cluster.JobStatusWire(job.Snapshot()))
}

// indexSpec validates one index request and turns it into a job spec: the
// dataset is pinned for the job's lifetime, the envelope carries the
// by-reference request (JobEnvelope kind "index") so a crash replays the
// build, and the run drives the session's EnsureIndex — reload when the
// store already holds the artifact, build-and-persist otherwise. The int is
// the HTTP status for a non-nil error.
func (s *server) indexSpec(req *wire.IndexRequest) (*jobs.Spec, int, error) {
	switch req.Kind {
	case "lsh", "kd":
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("index kind %q not supported (want lsh or kd)", req.Kind)
	}
	if req.K == 0 {
		req.K = 5
	}
	if req.K < 0 {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("k = %d, want >= 1", req.K)
	}
	if req.Eps == 0 {
		req.Eps = 0.1
	}
	if req.Delta == 0 && req.Kind == "lsh" {
		req.Delta = 0.1
	}
	if req.Eps <= 0 {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("eps = %g, want > 0", req.Eps)
	}
	if req.Kind == "lsh" && (req.Delta <= 0 || req.Delta >= 1) {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("delta = %g, want in (0,1)", req.Delta)
	}
	h, err := s.reg.Get(req.Dataset)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, registry.ErrNotFound) {
			status = http.StatusNotFound
		}
		return nil, status, fmt.Errorf("dataset: %w", err)
	}
	var env []byte
	if s.journal != nil {
		reqJSON, err := json.Marshal(req)
		if err == nil {
			env, err = json.Marshal(wire.JobEnvelope{
				V:       wire.JobEnvelopeVersion,
				Kind:    wire.JobKindIndex,
				Request: reqJSON,
			})
		}
		if err != nil {
			log.Printf("svserver: journal: serialize index request: %v", err)
			env = nil
		}
	}
	dataset, kind := h.ID(), req.Kind
	k, eps, delta, seed := req.K, req.Eps, req.Delta, req.Seed
	train := h.Dataset()
	return &jobs.Spec{
		TotalUnits: 1,
		RunAny: func(ctx context.Context) (any, error) {
			// The build runs on the same cached session later valuations hit,
			// so the in-memory index is warm immediately and the persisted
			// artifact serves every session after the next restart.
			v, err := s.sessionValuer(dataset, train, k, "", knnshapley.Float64, 0, 0)
			if err != nil {
				return nil, err
			}
			st, err := v.EnsureIndex(kind, eps, delta, seed)
			if err != nil {
				return nil, err
			}
			res := &wire.IndexJobResult{Built: st.Built, Loaded: st.Loaded}
			if info, err := s.indexes.Stat(registry.IndexID(dataset, st.Kind, st.Key)); err == nil {
				res.IndexInfo = indexInfo(info)
			} else {
				// Persisting is best-effort in the engine; surface the identity
				// even when only the live session holds the index.
				res.IndexInfo = wire.IndexInfo{
					ID:      registry.IndexID(dataset, st.Kind, st.Key),
					Dataset: dataset, Kind: st.Kind, Key: st.Key,
				}
			}
			return res, nil
		},
		Envelope: env,
		OnFinish: h.Release,
	}, http.StatusOK, nil
}

func (s *server) handleIndexList(w http.ResponseWriter, r *http.Request) {
	infos := s.indexes.List()
	resp := wire.IndexListResponse{Indexes: make([]wire.IndexInfo, len(infos))}
	for i, info := range infos {
		resp.Indexes[i] = indexInfo(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleIndexStat(w http.ResponseWriter, r *http.Request) {
	info, err := s.indexes.Stat(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, indexInfo(info))
}

func (s *server) handleIndexDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.indexes.Delete(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDatasetDelta is PUT /datasets/{id}/delta: derive a new versioned
// dataset from {id} by removing the named parent rows and appending new
// ones. The append rows arrive inline (the usual payload shape, auto-
// registered exactly like inline valuation payloads) or by reference to an
// already uploaded dataset. The child is stored under its ordinary content
// fingerprint with a recorded lineage edge, so a later valuation of the
// child discovers the O(ΔN) incremental path. The application runs as a
// journaled job (envelope kind "delta"): after a crash, pending deltas
// re-apply on replay and completed ones have their lineage edge rebuilt.
// 201 marks new child content, 200 an idempotent re-derivation.
func (s *server) handleDatasetDelta(w http.ResponseWriter, r *http.Request) {
	var dreq wire.DeltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dreq); err != nil {
		writeError(w, http.StatusBadRequest, "decode delta: "+err.Error())
		return
	}
	appendRef := dreq.AppendRef
	switch {
	case dreq.Append != nil && appendRef != "":
		writeError(w, http.StatusBadRequest, "append: give an inline payload or a ref, not both")
		return
	case dreq.Append == nil && appendRef == "" && len(dreq.Remove) == 0:
		writeError(w, http.StatusBadRequest, "empty delta: nothing to append or remove")
		return
	case dreq.Append != nil:
		d, err := buildDataset(dreq.Append)
		if err != nil {
			writeError(w, http.StatusBadRequest, "append: "+err.Error())
			return
		}
		if d.N() == 0 {
			writeError(w, http.StatusBadRequest, "append: empty dataset")
			return
		}
		h, _, err := s.reg.Put(d)
		if err != nil {
			writeError(w, putStatus(err), "append: "+err.Error())
			return
		}
		defer h.Release()
		appendRef = h.ID()
	}
	spec, status, err := s.deltaSpec(r.PathValue("id"), appendRef, dreq.Remove)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	job, err := s.submit(w, spec)
	if err != nil {
		return
	}
	// Deltas are registry materializations, not valuations — fast enough to
	// answer synchronously even though they ride the (journaled) job queue.
	select {
	case <-job.Done():
	case <-r.Context().Done():
		s.mgr.Cancel(job.ID())
		writeCanceled(w, statusClientClosedRequest, "canceled: client closed the connection")
		return
	}
	v, err := job.Value()
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp := v.(*wire.DeltaResponse)
	status = http.StatusOK
	if resp.Created {
		status = http.StatusCreated
	}
	writeJSON(w, status, resp)
}

// deltaSpec builds the job spec for one delta application: the parent and
// the append dataset (when any) are pinned for the job's lifetime, the
// envelope carries the by-reference wire.DeltaJob so a crash replays it,
// and the run applies the delta through the registry. The int is the HTTP
// status for a non-nil error.
func (s *server) deltaSpec(parent, appendRef string, remove []int) (*jobs.Spec, int, error) {
	ph, err := s.reg.Get(parent)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, registry.ErrNotFound) {
			status = http.StatusNotFound
		}
		return nil, status, fmt.Errorf("parent: %w", err)
	}
	release := ph.Release
	if appendRef != "" {
		ah, err := s.reg.Get(appendRef)
		if err != nil {
			ph.Release()
			status := http.StatusInternalServerError
			if errors.Is(err, registry.ErrNotFound) {
				status = http.StatusNotFound
			}
			return nil, status, fmt.Errorf("append: %w", err)
		}
		release = func() { ph.Release(); ah.Release() }
	}
	var env []byte
	if s.journal != nil {
		reqJSON, err := json.Marshal(wire.DeltaJob{Parent: parent, AppendRef: appendRef, Remove: remove})
		if err == nil {
			env, err = json.Marshal(wire.JobEnvelope{
				V:       wire.JobEnvelopeVersion,
				Kind:    wire.JobKindDelta,
				Request: reqJSON,
			})
		}
		if err != nil {
			log.Printf("svserver: journal: serialize delta: %v", err)
			env = nil
		}
	}
	return &jobs.Spec{
		TotalUnits: 1,
		RunAny: func(ctx context.Context) (any, error) {
			return s.applyDelta(parent, appendRef, remove)
		},
		Envelope: env,
		OnFinish: release,
	}, http.StatusOK, nil
}

// applyDelta resolves the append rows and applies the delta, rendering the
// child's wire metadata.
func (s *server) applyDelta(parent, appendRef string, remove []int) (*wire.DeltaResponse, error) {
	var app *knnshapley.Dataset
	if appendRef != "" {
		ah, err := s.reg.Get(appendRef)
		if err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		defer ah.Release()
		app = ah.Dataset()
	}
	ch, lin, created, err := s.reg.ApplyDelta(parent, registry.Delta{Append: app, Remove: remove})
	if err != nil {
		return nil, err
	}
	defer ch.Release()
	info, err := s.reg.Stat(ch.ID())
	if err != nil {
		return nil, err
	}
	return &wire.DeltaResponse{
		DatasetInfo: s.datasetInfo(info),
		Created:     created,
		Appended:    lin.Appended,
		Removed:     len(lin.Removed),
	}, nil
}

// decodeRequest parses one valuation request body.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request) (*valueRequest, error) {
	var req valueRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	return &req, nil
}

// handleJobSubmit is POST /jobs: validate, enqueue, answer 202 with the
// job's initial status (which is already "done" on a cache hit).
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := s.decodeRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, status, err := s.buildSpec(req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	job, err := s.submit(w, spec)
	if err != nil {
		return
	}
	writeJSON(w, http.StatusAccepted, cluster.JobStatusWire(job.Snapshot()))
}

// submit maps manager-level submission errors onto HTTP backpressure. A
// rejected submission has already run the spec's OnFinish hook (releasing
// its registry handles) inside Manager.Submit.
func (s *server) submit(w http.ResponseWriter, spec *jobs.Spec) (*jobs.Job, error) {
	job, err := s.mgr.Submit(*spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
	return job, err
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, cluster.JobStatusWire(job.Snapshot()))
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	snap := job.Snapshot()
	if !snap.State.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; poll GET /jobs/%s until done", snap.ID, snap.State, snap.ID))
		return
	}
	rep, err := job.Report()
	if err != nil {
		writeRunError(w, err)
		return
	}
	if rep == nil {
		// A RunAny job: an index build's or a delta's result is the JSON its
		// submitting endpoint would have answered; a cluster shard
		// sub-job's is a binary ShardReport served elsewhere.
		val, err := job.Value()
		if err != nil {
			writeRunError(w, err)
			return
		}
		switch v := val.(type) {
		case *wire.IndexJobResult, *wire.DeltaResponse:
			writeJSON(w, http.StatusOK, v)
		case *cluster.ShardReport:
			writeError(w, http.StatusConflict,
				fmt.Sprintf("job %s is a shard sub-job; fetch GET /shard/jobs/%s/result", snap.ID, snap.ID))
		default:
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("job %s has no JSON result", snap.ID))
		}
		return
	}
	meta, _ := job.Meta().(jobMeta)
	writeJSON(w, http.StatusOK, buildResponse(rep, meta, snap.CacheHit))
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, cluster.JobStatusWire(job.Snapshot()))
}

// handleValue is POST /value: the synchronous submit-and-wait wrapper over
// the job manager, kept for one-shot clients. It shares the result and
// session caches with the async path.
func (s *server) handleValue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := s.decodeRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, status, err := s.buildSpec(req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	job, err := s.submit(w, spec)
	if err != nil {
		return
	}
	// The request context is canceled by net/http when the client
	// disconnects; -request-timeout adds the server-side deadline. Either
	// way the job itself is canceled too, releasing its worker.
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	rep, err := s.mgr.Wait(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			s.mgr.Cancel(job.ID())
		}
		writeRunError(w, err)
		return
	}
	meta, _ := job.Meta().(jobMeta)
	writeJSON(w, http.StatusOK, buildResponse(rep, meta, job.Snapshot().CacheHit))
}

// resolveDataset turns one side of a valuation request into a pinned
// registry handle. A ref is a registry lookup — no payload decode, no
// validation, no fingerprinting. An inline payload is decoded, validated
// and auto-registered, so its content is addressable (and cached against)
// from this request on. The int is the HTTP status for a non-nil error.
func (s *server) resolveDataset(ref string, inline *payload, side string) (*registry.Handle, int, error) {
	switch {
	case ref != "" && inline != nil:
		return nil, http.StatusBadRequest,
			fmt.Errorf("%s: give an inline payload or a ref, not both", side)
	case ref != "":
		h, err := s.reg.Get(ref)
		if errors.Is(err, registry.ErrNotFound) {
			return nil, http.StatusNotFound, fmt.Errorf("%s: %w", side, err)
		}
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("%s: %w", side, err)
		}
		return h, 0, nil
	case inline != nil:
		d, err := buildDataset(inline)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("%s: %w", side, err)
		}
		if d.N() == 0 {
			// An empty payload passes dataset validation but is useless for
			// valuation and unstorable (no recoverable dimension) — reject
			// it as a client error before the registry refuses it as a
			// server one.
			return nil, http.StatusBadRequest, fmt.Errorf("%s: empty dataset", side)
		}
		h, _, err := s.reg.Put(d)
		if err != nil {
			return nil, putStatus(err), fmt.Errorf("%s: %w", side, err)
		}
		return h, 0, nil
	default:
		return nil, http.StatusBadRequest,
			fmt.Errorf("%s: missing dataset (inline payload or ref)", side)
	}
}

// sessionValuer returns the cached Valuer session for (training content,
// session options), building it on first use — one session per key, shared
// by valuations and explicit index-build jobs. Every session carries the
// server's persistent index store, so lazily built LSH/k-d indexes survive
// the session cache, the process, and are visible to the algo=auto
// planner's "already paid for?" probe. metricName is the raw wire spelling
// (already validated by the caller); the registry ID is the content
// fingerprint, so nothing is re-hashed here.
func (s *server) sessionValuer(trainID string, train *knnshapley.Dataset, k int, metricName string, precision knnshapley.Precision, workers, batch int) (*knnshapley.Valuer, error) {
	key := fmt.Sprintf("%s|k=%d|metric=%s|precision=%s|workers=%d|batch=%d",
		trainID, k, metricName, precision, workers, batch)
	return s.mgr.Valuer(key, func() (*knnshapley.Valuer, error) {
		metric, err := knnshapley.ParseMetric(metricName)
		if err != nil {
			return nil, err
		}
		return knnshapley.New(train,
			knnshapley.WithK(k),
			knnshapley.WithMetric(metric),
			knnshapley.WithPrecision(precision),
			knnshapley.WithWorkers(workers),
			knnshapley.WithBatchSize(batch),
			knnshapley.WithIndexStore(knnshapley.WrapIndexStore(s.indexes)),
		)
	})
}

// buildSpec validates a request and turns it into a job spec. Both dataset
// sides resolve to pinned registry handles (held until the job terminates,
// via Spec.OnFinish); the Valuer session and the result cache are keyed on
// the registry IDs, so the by-ref hot path touches neither payload bytes
// nor hashes. The int is the HTTP status for a non-nil error.
//
// There is no per-algorithm dispatch here: the request decode already
// resolved the method and its typed parameters against the knnshapley
// registry, the parameters validate themselves, and Valuer.Evaluate runs
// them — registering a new method in the root package is all it takes to
// serve it.
func (s *server) buildSpec(req *valueRequest) (*jobs.Spec, int, error) {
	p := req.Params
	if p == nil {
		// Requests built in-process (tests, embedding) may skip the JSON
		// decode that normally fills Params; resolve the name here.
		name := req.Algorithm
		if name == "" {
			name = "exact"
		}
		var ok bool
		if p, ok = knnshapley.Lookup(name); !ok {
			return nil, http.StatusBadRequest, fmt.Errorf("unknown algorithm %q", req.Algorithm)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("%s: %w", p.Name(), err)
	}

	trainH, status, err := s.resolveDataset(req.TrainRef, req.Train, "train")
	if err != nil {
		return nil, status, err
	}
	testH, status, err := s.resolveDataset(req.TestRef, req.Test, "test")
	if err != nil {
		trainH.Release()
		return nil, status, err
	}
	release := func() { trainH.Release(); testH.Release() }

	if _, err := knnshapley.ParseMetric(req.Metric); err != nil {
		release()
		return nil, http.StatusBadRequest, err
	}
	precision, err := knnshapley.ParsePrecision(req.Precision)
	if err != nil {
		release()
		return nil, http.StatusBadRequest, err
	}

	train, test := trainH.Dataset(), testH.Dataset()
	v, err := s.sessionValuer(trainH.ID(), train, req.K, req.Metric, precision, req.Workers, req.BatchSize)
	if err != nil {
		release()
		return nil, http.StatusUnprocessableEntity, err
	}

	// The result cache key spans everything that shapes the values — the
	// dataset IDs, the session options and the method's own canonicalized
	// parameters (Params.CacheKey) — but deliberately not
	// workers/batchSize: the engine's ordered reduction makes outputs
	// bit-identical across both, so tuning knobs should not fragment the
	// cache. Precision IS part of the key (float32 changes distances, hence
	// values), written canonically so "" and "float64" share an entry.
	// Canonicalization means semantically identical requests hit regardless
	// of entry point or field spelling.
	cacheKey := fmt.Sprintf("%s|%s|%s|k=%d|metric=%s|precision=%s|%s",
		trainH.ID(), testH.ID(), p.Name(), req.K, req.Metric, precision, p.CacheKey())

	run := func(ctx context.Context) (*knnshapley.Report, error) {
		return v.Evaluate(ctx, knnshapley.Request{Params: p, Test: test})
	}
	// On a single node, the methods the coordinator could scatter route
	// through the incremental evaluator instead: it keeps the full neighbor
	// ordering per (train, test, k, metric, precision) in a budgeted cache,
	// so valuing a delta-derived dataset costs O(ΔN) — and a cold run costs
	// one ranked scan with values bit-identical to the engine's, so the
	// shared result cache stays coherent across both paths.
	if s.coord == nil {
		if creq, ok := clusterRequest(p, req, v, train, test, trainH.ID(), testH.ID()); ok {
			run = func(ctx context.Context) (*knnshapley.Report, error) {
				return s.incrementalReport(ctx, creq)
			}
		}
	}
	// In coordinator mode, distributable methods scatter across the fleet
	// instead. The cache key stays the local one on purpose: the merge is
	// bit-identical to local execution, so both paths may share entries.
	// ErrNoPeers degrades to the local run — a lone coordinator still
	// answers, just without fan-out.
	if s.coord != nil {
		if creq, ok := clusterRequest(p, req, v, train, test, trainH.ID(), testH.ID()); ok {
			local := run
			run = func(ctx context.Context) (*knnshapley.Report, error) {
				rep, err := s.coord.Evaluate(ctx, creq)
				if errors.Is(err, cluster.ErrNoPeers) {
					s.fallbacks.Add(1)
					log.Printf("svserver: no healthy peers, valuing locally")
					return local(ctx)
				}
				return rep, err
			}
		}
	}
	return &jobs.Spec{
		CacheKey:   cacheKey,
		TotalUnits: test.N(),
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			rep, err := run(ctx)
			if err == nil && rep.Plan != nil {
				s.plans.Record(rep.Plan.Method, rep.Plan.Fallback, rep.Plan.Extrapolated)
			}
			return rep, err
		},
		Meta: jobMeta{
			algorithm: p.Name(), trainN: train.N(),
			trainRef: trainH.ID(), testRef: testH.ID(),
		},
		Envelope: s.specEnvelope(req, p, trainH.ID(), testH.ID()),
		OnFinish: release,
	}, http.StatusOK, nil
}

// specEnvelope serializes the request for the write-ahead job journal: a
// by-reference copy of the wire request (inline payloads were auto-
// registered by resolveDataset, so the refs are the durable identity — the
// envelope stays a few hundred bytes whatever the dataset size) inside a
// versioned wire.JobEnvelope. Returns nil when the server runs without a
// journal or the request cannot be serialized (the job is then memory-only,
// which degrades durability, never submission).
func (s *server) specEnvelope(req *valueRequest, p knnshapley.Method, trainID, testID string) []byte {
	if s.journal == nil {
		return nil
	}
	byref := *req
	byref.Params = p
	byref.Train, byref.Test = nil, nil
	byref.TrainRef, byref.TestRef = trainID, testID
	reqJSON, err := json.Marshal(byref)
	if err != nil {
		log.Printf("svserver: journal: serialize request: %v", err)
		return nil
	}
	env, err := json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, Request: reqJSON})
	if err != nil {
		log.Printf("svserver: journal: serialize envelope: %v", err)
		return nil
	}
	return env
}

// clusterRequest maps a valuation onto the cluster request shape, reporting
// whether the method is distributable at all: the sharded merge reproduces
// exact and truncated classification valuations bit-identically; everything
// else (Monte-Carlo permutations, seller games, ANN indexes, regression)
// stays single-node.
func clusterRequest(p knnshapley.Method, req *valueRequest, v *knnshapley.Valuer,
	train, test *knnshapley.Dataset, trainID, testID string) (cluster.Request, bool) {
	if train.IsRegression() || test.IsRegression() {
		return cluster.Request{}, false
	}
	creq := cluster.Request{
		Train: train, Test: test,
		TrainID: trainID, TestID: testID,
		K: v.K(), MetricName: req.Metric,
		Workers: req.Workers, BatchSize: req.BatchSize,
	}
	switch tp := p.(type) {
	case knnshapley.ExactParams, *knnshapley.ExactParams:
		creq.Method = "exact"
	case knnshapley.TruncatedParams:
		creq.Method, creq.Eps = "truncated", tp.Eps
	case *knnshapley.TruncatedParams:
		creq.Method, creq.Eps = "truncated", tp.Eps
	default:
		return cluster.Request{}, false
	}
	// Both parses were validated when the spec was built; the errors cannot
	// recur here.
	creq.Metric, _ = knnshapley.ParseMetric(req.Metric)
	creq.Precision, _ = knnshapley.ParsePrecision(req.Precision)
	return creq, true
}

// incrementalReport runs one valuation through the incremental evaluator
// and renders the same Report shape the engine (and the cluster merge)
// produce, so all three execution paths share result-cache entries.
func (s *server) incrementalReport(ctx context.Context, creq cluster.Request) (*knnshapley.Report, error) {
	start := time.Now()
	values, err := s.inc.Values(ctx, creq)
	if err != nil {
		return nil, err
	}
	rep := &knnshapley.Report{
		Values:     values,
		Method:     creq.Method,
		TestPoints: creq.Test.N(),
		Duration:   time.Since(start),
	}
	if fp, err := strconv.ParseUint(creq.TrainID, 16, 64); err == nil {
		rep.Fingerprint = fp
	} else {
		rep.Fingerprint = creq.Train.Fingerprint()
	}
	if creq.Method == "truncated" {
		rep.KStar = core.KStar(creq.K, creq.Eps)
	}
	return rep, nil
}

// buildResponse renders a Report in the wire format. A cache-hit job
// carries a report already marked CacheHit with a near-zero Duration (the
// lookup, not the original run), so the wire duration is honest either way.
func buildResponse(rep *knnshapley.Report, meta jobMeta, cached bool) *valueResponse {
	resp := &valueResponse{
		Values:       rep.Values,
		N:            meta.trainN,
		Algorithm:    meta.algorithm,
		Permutations: rep.Permutations,
		Budget:       rep.Budget,
		UtilityEvals: rep.UtilityEvals,
		KStar:        rep.KStar,
		DurationMs:   rep.Duration.Milliseconds(),
		Fingerprint:  fmt.Sprintf("%016x", rep.Fingerprint),
		Cached:       cached || rep.CacheHit,
		TrainRef:     meta.trainRef,
		TestRef:      meta.testRef,
		Plan:         rep.Plan,
	}
	if rep.Method == "composite" {
		analyst := rep.Analyst
		resp.Analyst = &analyst
	}
	return resp
}

func buildDataset(p *payload) (*knnshapley.Dataset, error) {
	var d *knnshapley.Dataset
	var err error
	if len(p.Targets) > 0 {
		d, err = knnshapley.NewRegressionDataset(p.X, p.Targets)
	} else {
		d, err = knnshapley.NewClassificationDataset(p.X, p.Labels)
	}
	if err != nil {
		return nil, err
	}
	if p.Name != "" {
		d.Name = p.Name
	}
	return d, nil
}

// writeRunError maps a job's terminal error onto the /value error
// conventions: 499 for a canceled run, 504 for a lapsed deadline, 410 for a
// result the restart lost, 422 for a valuation the engine rejected.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrResultLost):
		// The job finished before a restart: its history survived the crash
		// but its report did not — the values are Gone, resubmit to recompute.
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, context.Canceled):
		writeCanceled(w, statusClientClosedRequest, "valuation canceled: "+err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeCanceled(w, http.StatusGatewayTimeout, "valuation canceled: "+err.Error())
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		log.Printf("svserver: encode response: %v", err)
	}
}

// putStatus is the HTTP status of a failed registry Put. The handlers
// validate the payload's shape first, so apart from a non-finite feature,
// which is the client's fault, a failure is the disk tier's.
func putStatus(err error) int {
	if errors.Is(err, dataset.ErrNonFinite) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeCanceled reports a context-terminated valuation: the JSON body
// carries "canceled": true so clients can tell an aborted run from a
// rejected one.
func writeCanceled(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Canceled: true})
}
