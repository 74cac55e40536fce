package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/dataset"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/planner"
	"knnshapley/internal/registry"
	"knnshapley/internal/wire"
)

// StatusClientClosedRequest is the nginx convention for "client closed the
// connection before the response was ready"; net/http happily writes any
// registered or unregistered 3-digit status.
const StatusClientClosedRequest = 499

// Config is what New needs to build one server.
type Config struct {
	// MaxBody bounds every request body, in bytes.
	MaxBody int64
	// RequestTimeout bounds the compute of one synchronous POST /value
	// (0 = none).
	RequestTimeout time.Duration
	Jobs           jobs.Config
	Registry       registry.Config
	// Indexes is the persisted ANN index store; an empty Dir means
	// <Registry.Dir>/indexes.
	Indexes registry.IndexConfig
	// Journal, when non-nil, makes the job manager journal-backed: every
	// submission carries a durable envelope, and Replay reinstalls what a
	// crash left behind. The caller closes it.
	Journal *journal.Writer
	// RankCacheBudget is the byte budget of cached neighbor rankings for
	// incremental delta valuation (0 = 256 MiB, negative disables caching).
	RankCacheBudget int64
	// Coordinator, when non-nil, scatters distributable valuations across
	// its peers. The caller closes it.
	Coordinator *cluster.Coordinator
}

// Server carries the per-process state behind the routes.
type Server struct {
	maxBody int64
	timeout time.Duration
	mgr     *jobs.Manager
	reg     *registry.Registry

	// indexes persists serialized ANN indexes beside their datasets; every
	// Valuer session is built with it attached, so index builds amortize
	// across sessions AND process restarts, and POST /indexes can pay the
	// build cost explicitly, off the query path.
	indexes *registry.IndexStore

	// coord is non-nil only in -coordinator mode and scatters distributable
	// valuations across the fleet. fallbacks counts coordinator valuations
	// degraded to local execution by ErrNoPeers; shardJobs counts the shard
	// sub-jobs this server accepted as a peer (the shard endpoints are
	// always mounted — any svserver can be a cluster peer).
	coord     *cluster.Coordinator
	fallbacks atomic.Int64
	shardJobs atomic.Int64

	// journal is the write-ahead job journal (nil with -journal=false);
	// envelope only serializes submissions when it is present.
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

	mux *http.ServeMux
}

// New builds a server with its own job manager, dataset registry and index
// store.
func New(cfg Config) (*Server, error) {
	reg, err := registry.New(cfg.Registry)
	if err != nil {
		return nil, err
	}
	icfg := cfg.Indexes
	if icfg.Dir == "" {
		icfg.Dir = filepath.Join(cfg.Registry.Dir, "indexes")
	}
	idx, err := registry.NewIndexStore(icfg)
	if err != nil {
		return nil, err
	}
	jcfg := cfg.Jobs
	if cfg.Journal != nil {
		jcfg.Journal = cfg.Journal
	}
	s := &Server{
		maxBody: cfg.MaxBody, timeout: cfg.RequestTimeout,
		mgr: jobs.New(jcfg), reg: reg, indexes: idx,
		coord: cfg.Coordinator, journal: cfg.Journal,
		inc: cluster.NewIncremental(cluster.NewRankCache(cfg.RankCacheBudget), reg),
	}
	s.mux = s.routes()
	return s, nil
}

// Handler serves every route. The mux itself answers a path no route
// matches (404) and a route's path under another method (405, with its
// Allow header); muxError turns those answers into the JSON error every
// handler writes.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := s.mux.Handler(r); pattern == "" {
			w = &muxError{ResponseWriter: w, r: r}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// muxError rewrites the mux's plain-text 404 and 405 as JSON errors and
// drops their text bodies; any other status (the mux's path-cleaning
// redirect) passes through.
type muxError struct {
	http.ResponseWriter
	r       *http.Request
	rewrote bool
}

func (m *muxError) WriteHeader(status int) {
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		m.ResponseWriter.WriteHeader(status)
		return
	}
	m.rewrote = true
	writeError(m.ResponseWriter, status, fmt.Sprintf("%s %s: %s",
		m.r.Method, m.r.URL.Path, strings.ToLower(http.StatusText(status))))
}

func (m *muxError) Write(p []byte) (int, error) {
	if m.rewrote {
		return len(p), nil
	}
	return m.ResponseWriter.Write(p)
}

// Close shuts the job manager down, canceling the jobs still queued or
// running; with a journal, each is journaled as canceled.
func (s *Server) Close() { s.mgr.Close() }

// Jobs, Registry, Indexes and Incremental expose the subsystems behind the
// routes, for the process's startup log and for tests that read their
// state directly.
func (s *Server) Jobs() *jobs.Manager               { return s.mgr }
func (s *Server) Registry() *registry.Registry      { return s.reg }
func (s *Server) Indexes() *registry.IndexStore     { return s.indexes }
func (s *Server) Incremental() *cluster.Incremental { return s.inc }

// routes wires the endpoint table.
func (s *Server) routes() *http.ServeMux {
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
	mux.HandleFunc("POST /shard/jobs", s.handleShardSubmit)
	mux.HandleFunc("GET /shard/jobs/{id}/result", s.handleShardResult)
	return mux
}

// handleMethods is GET /methods: the server-side discovery surface. It
// renders the registry's self-describing schemas — every algorithm this
// build can run, each with its parameter names, types, required flags,
// defaults and bounds — so clients enumerate capabilities instead of
// hard-coding them.
func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	ms := knnshapley.Methods()
	resp := wire.MethodsResponse{Methods: make([]knnshapley.MethodSchema, len(ms))}
	for i, m := range ms {
		resp.Methods[i] = m.Schema()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
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

func (s *Server) statz() statzResponse {
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
func (s *Server) clusterStatz() wire.ClusterStatz {
	var st wire.ClusterStatz
	if s.coord != nil {
		st = s.coord.Statz()
	}
	st.Fallbacks = s.fallbacks.Load()
	st.ShardJobs = s.shardJobs.Load()
	return st
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statz())
}

func (s *Server) handleClusterStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterStatz())
}

// handleMetrics is GET /metrics: the /statz and /cluster/statz counters in
// the Prometheus text exposition format, rendered from the same values by
// writeMetrics. Every family carries its HELP and TYPE lines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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

// submit maps manager-level submission errors onto HTTP backpressure. A
// rejected submission has already run the spec's OnFinish hook (releasing
// its registry handles) inside Manager.Submit.
func (s *Server) submit(w http.ResponseWriter, spec *jobs.Spec) (*jobs.Job, error) {
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

// finishedJob looks job id up for a result endpoint, answering 404 for an
// unknown job and 409 for one still queued or running; ok reports that
// neither was written.
func (s *Server) finishedJob(w http.ResponseWriter, id string) (job *jobs.Job, ok bool) {
	if job, ok = s.mgr.Get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return nil, false
	}
	if state := job.Snapshot().State; !state.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; poll GET /jobs/%s until done", id, state, id))
		return nil, false
	}
	return job, true
}

// getDataset pins the stored dataset id, naming its role in a failure. The
// int is the HTTP status for a non-nil error.
func (s *Server) getDataset(id, role string) (*registry.Handle, int, error) {
	h, err := s.reg.Get(id)
	if err != nil {
		return nil, registryStatus(err), fmt.Errorf("%s: %w", role, err)
	}
	return h, http.StatusOK, nil
}

// registryStatus is the HTTP status of a failed registry read: 404 for an
// ID the registry does not hold, 500 for a disk-tier failure (a file that
// failed verification included).
func registryStatus(err error) int {
	if errors.Is(err, registry.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
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

// jobStatus renders a job snapshot in the wire shape every job and shard
// endpoint answers with.
func jobStatus(s jobs.Snapshot) *wire.JobStatus {
	resp := &wire.JobStatus{
		ID:        s.ID,
		Status:    string(s.State),
		Done:      s.Done,
		Total:     s.Total,
		CacheHit:  s.CacheHit,
		Error:     s.Err,
		CreatedAt: s.Created,
	}
	if !s.Started.IsZero() {
		t := s.Started
		resp.StartedAt = &t
	}
	if !s.Finished.IsZero() {
		t := s.Finished
		resp.FinishedAt = &t
	}
	return resp
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
		writeCanceled(w, StatusClientClosedRequest, "valuation canceled: "+err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeCanceled(w, http.StatusGatewayTimeout, "valuation canceled: "+err.Error())
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// decodeJSON decodes a request body of at most limit bytes into v,
// rejecting unknown fields.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		log.Printf("svserver: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, wire.ErrorResponse{Error: msg})
}

// writeCanceled reports a context-terminated valuation: the JSON body
// carries "canceled": true so clients can tell an aborted run from a
// rejected one.
func writeCanceled(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, wire.ErrorResponse{Error: msg, Canceled: true})
}
