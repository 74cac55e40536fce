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
// The routes, request and response formats, the job lifecycle, crash
// durability, cluster mode and the counters are documented in package
// internal/server, which implements every handler. This command parses the
// flags, opens and replays the job journal, listens, and drains on a
// signal.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains in-flight
// HTTP requests for -drain-timeout, then shuts the job manager down
// (canceling still-running jobs) and exits.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"knnshapley/internal/cluster"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
)

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
	var coord *cluster.Coordinator
	var peers []string
	if *coordinator {
		if peers = splitPeers(*peersFlag); len(peers) == 0 {
			log.Fatal("svserver: -coordinator requires -peers")
		}
		coord = cluster.New(cluster.Config{Peers: peers, Replicas: *replicas})
		defer coord.Close()
	} else if *peersFlag != "" {
		log.Fatal("svserver: -peers requires -coordinator")
	}
	srv, err := server.New(server.Config{
		MaxBody:        *maxBody,
		RequestTimeout: *reqTimeout,
		Jobs: jobs.Config{
			Workers:    *jobWorkers,
			QueueDepth: *jobQueue,
			TTL:        *jobTTL,
			CacheSize:  *jobCache,
			JobTimeout: *jobTimeout,
		},
		Registry:        registry.Config{Dir: dir, MemBudget: *memBudget, DiskBudget: *diskBudget},
		Indexes:         registry.IndexConfig{Dir: idxDir, DiskBudget: *indexBudget},
		Journal:         jw,
		RankCacheBudget: *rankBudget,
		Coordinator:     coord,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := len(srv.Registry().List()); n > 0 {
		log.Printf("svserver: recovered %d datasets from %s", n, dir)
	}
	if n := len(srv.Indexes().List()); n > 0 {
		log.Printf("svserver: recovered %d persisted indexes from %s", n, idxDir)
	}
	if jw != nil {
		srv.Replay(replayStates)
		jw.PurgeReplayed()
	}
	if coord != nil {
		log.Printf("svserver: coordinating over %d peers: %s", len(peers), strings.Join(peers, ", "))
	}
	// Explicit timeouts so slow clients cannot pin connections open
	// indefinitely while trickling large bodies (no WriteTimeout: big
	// valuations legitimately take a while to compute and stream back;
	// -request-timeout bounds the compute itself).
	hs := &http.Server{
		Handler:           srv.Handler(),
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
		srv.Close()
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
	srv.Close()
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
