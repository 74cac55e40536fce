package cluster

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"knnshapley"
	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/jobs"
	"knnshapley/internal/knn"
	"knnshapley/internal/registry"
	"knnshapley/internal/vec"
	"knnshapley/internal/wire"
)

// ShardParams is the decoded, validated form of wire.ShardRequest — the
// knobs ComputeShardReport needs beyond the two datasets.
type ShardParams struct {
	K            int
	Metric       vec.Metric
	Precision    knn.Precision
	Limit        int // neighbors reported per test point (0 = full shard)
	GlobalOffset int // global index of the shard's first training row
	GlobalN      int // unsharded training-set size
	TestOffset   int // global index of the first test row
	BatchSize    int // distance-tile height (0 = knn stream default 64)
}

// ComputeShardReport runs one shard sub-job in process: for every test row,
// the sorted list of the Limit nearest training rows of this shard, with
// global indices and correctness flags. Distances come from the same
// norm-precompute scan every single-node valuation uses, and each row's
// distance depends only on that row and the query — so a shard's entries are
// bit-identical to the corresponding entries of an unsharded scan, and each
// list is core.Scratch.Packed at the shard's global offset, the single-node
// engine's packed sort or top-K — which is what makes the coordinator's
// merged recursion reproduce single-node values exactly. Each rank's
// distance is copied from the scan, not rebuilt from its sort key, which
// maps -0 to +0. Progress flows through the
// knnshapley context callback, so a job-managed shard reports done/total like
// any valuation.
func ComputeShardReport(ctx context.Context, train, test *dataset.Dataset, p ShardParams) (*ShardReport, error) {
	if train.IsRegression() || test.IsRegression() {
		return nil, errors.New("cluster: shard valuation applies to classification datasets")
	}
	n := train.N()
	limit := p.Limit
	if limit <= 0 || limit > n {
		limit = n
	}
	if p.GlobalOffset < 0 || p.GlobalN < p.GlobalOffset+n {
		return nil, fmt.Errorf("cluster: shard rows [%d,%d) outside global training set of %d",
			p.GlobalOffset, p.GlobalOffset+n, p.GlobalN)
	}
	pre := knn.NewPrecomp(train, p.Metric, p.Precision)
	stream, err := knn.NewStreamPre(knn.UnweightedClass, p.K, nil, p.Metric, train, test, pre)
	if err != nil {
		return nil, err
	}
	batch := p.BatchSize
	if batch <= 0 {
		batch = 64
	}
	progress := knnshapley.ProgressFrom(ctx)
	total := test.N()

	sr := &ShardReport{
		GlobalN:    p.GlobalN,
		TestOffset: p.TestOffset,
		Idx:        make([][]uint32, 0, total),
		Dist:       make([][]float64, 0, total),
	}
	scratch := core.NewScratch()
	tps := make([]*knn.TestPoint, batch)
	done := 0
	for {
		b, err := stream.NextBatch(ctx, tps)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			break
		}
		for _, tp := range tps[:b] {
			idx := slices.Clone(scratch.Packed(tp, limit, p.GlobalOffset))
			dist := make([]float64, len(idx))
			for r, v := range idx {
				id, _ := UnpackIndex(v)
				dist[r] = tp.Dist[id-p.GlobalOffset]
			}
			sr.Idx = append(sr.Idx, idx)
			sr.Dist = append(sr.Dist, dist)
		}
		done += b
		if progress != nil {
			progress(done, total)
		}
	}
	return sr, nil
}

// Worker serves shard sub-jobs over HTTP on top of a process's existing
// dataset registry and job manager: POST /shard/jobs enqueues one, and the
// ordinary job endpoints poll and cancel it; GET /shard/jobs/{id}/result
// streams the binary ShardReport back.
type Worker struct {
	Reg *registry.Registry
	Mgr *jobs.Manager

	shardJobs atomic.Int64 // sub-jobs accepted (ClusterStatz.ShardJobs)
}

// NewWorker wraps an existing registry and job manager.
func NewWorker(reg *registry.Registry, mgr *jobs.Manager) *Worker {
	return &Worker{Reg: reg, Mgr: mgr}
}

// ShardJobs returns how many shard sub-jobs this worker has accepted.
func (w *Worker) ShardJobs() int64 { return w.shardJobs.Load() }

// Mount registers the shard endpoints on mux. The host process (svserver)
// serves GET /jobs/{id} and DELETE /jobs/{id} itself; the standalone Handler
// below adds them for hosts that do not.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /shard/jobs", w.handleShardSubmit)
	mux.HandleFunc("GET /shard/jobs/{id}/result", w.handleShardResult)
}

// maxShardBody bounds a shard submission body; requests are by-reference, so
// a few KiB of JSON is already generous.
const maxShardBody = 1 << 20

// handleShardSubmit is POST /shard/jobs: resolve the by-reference datasets,
// validate the shard geometry, enqueue a RunAny job computing the report.
func (w *Worker) handleShardSubmit(rw http.ResponseWriter, r *http.Request) {
	var req wire.ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeClusterError(rw, http.StatusBadRequest, "decode shard request: "+err.Error())
		return
	}
	if req.K <= 0 {
		writeClusterError(rw, http.StatusUnprocessableEntity, fmt.Sprintf("k = %d, want >= 1", req.K))
		return
	}
	metric, err := knnshapley.ParseMetric(req.Metric)
	if err != nil {
		writeClusterError(rw, http.StatusBadRequest, err.Error())
		return
	}
	precision, err := knnshapley.ParsePrecision(req.Precision)
	if err != nil {
		writeClusterError(rw, http.StatusBadRequest, err.Error())
		return
	}
	trainH, err := w.Reg.Get(req.TrainRef)
	if err != nil {
		writeClusterError(rw, statusForRegistry(err), "train: "+err.Error())
		return
	}
	testH, err := w.Reg.Get(req.TestRef)
	if err != nil {
		trainH.Release()
		writeClusterError(rw, statusForRegistry(err), "test: "+err.Error())
		return
	}
	release := func() { trainH.Release(); testH.Release() }

	train, test := trainH.Dataset(), testH.Dataset()
	params := ShardParams{
		K: req.K, Metric: metric, Precision: precision,
		Limit: req.Limit, GlobalOffset: req.GlobalOffset, GlobalN: req.GlobalN,
		TestOffset: req.TestOffset, BatchSize: req.BatchSize,
	}
	if train.Dim() != test.Dim() {
		release()
		writeClusterError(rw, http.StatusUnprocessableEntity,
			fmt.Sprintf("train dim %d != test dim %d", train.Dim(), test.Dim()))
		return
	}
	job, err := w.Mgr.Submit(jobs.Spec{
		TotalUnits: test.N(),
		RunAny: func(ctx context.Context) (any, error) {
			return ComputeShardReport(ctx, train, test, params)
		},
		OnFinish: release,
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeClusterError(rw, http.StatusTooManyRequests, "job queue full, retry later")
		return
	case errors.Is(err, jobs.ErrClosed):
		writeClusterError(rw, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		writeClusterError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	w.shardJobs.Add(1)
	writeClusterJSON(rw, http.StatusAccepted, JobStatusWire(job.Snapshot()))
}

// handleShardResult is GET /shard/jobs/{id}/result: the binary report of a
// done shard sub-job.
func (w *Worker) handleShardResult(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := w.Mgr.Get(id)
	if !ok {
		writeClusterError(rw, http.StatusNotFound, "unknown job "+id)
		return
	}
	snap := job.Snapshot()
	if !snap.State.Terminal() {
		writeClusterError(rw, http.StatusConflict,
			fmt.Sprintf("job %s is %s; poll GET /jobs/%s until done", id, snap.State, id))
		return
	}
	v, err := job.Value()
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusConflict
		}
		writeClusterError(rw, status, err.Error())
		return
	}
	sr, ok := v.(*ShardReport)
	if !ok {
		writeClusterError(rw, http.StatusConflict, "job "+id+" is not a shard sub-job")
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	// Reports compress well (packed indices are near-sequential, distances
	// share exponent bytes), so gzip when the caller accepts it and the body
	// is big enough to beat the frame overhead. BestSpeed: the gather path is
	// latency-sensitive and level 9 buys little on float-heavy payloads.
	if acceptsGzip(r) && sr.EncodedBytes() > gzipMinReportBytes {
		rw.Header().Set("Content-Encoding", "gzip")
		zw, _ := gzip.NewWriterLevel(rw, gzip.BestSpeed)
		_, werr := sr.WriteTo(zw)
		if err := zw.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			log.Printf("cluster: stream shard report %s: %v", id, werr)
		}
		return
	}
	rw.Header().Set("Content-Length", strconv.FormatInt(sr.EncodedBytes(), 10))
	if _, err := sr.WriteTo(rw); err != nil {
		log.Printf("cluster: stream shard report %s: %v", id, err)
	}
}

// gzipMinReportBytes is the size below which compressing a shard report is
// not worth the CPU and header overhead.
const gzipMinReportBytes = 4096

// acceptsGzip reports whether the request advertises gzip support.
func acceptsGzip(r *http.Request) bool {
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc = strings.TrimSpace(enc)
		if enc == "gzip" || strings.HasPrefix(enc, "gzip;") {
			return true
		}
	}
	return false
}

// Handler returns a self-contained worker mux — the shard endpoints plus the
// minimal job, dataset and health surface a coordinator speaks — for hosts
// that are not a full svserver: the in-process wire_sharded benchmark and
// the cluster tests. svserver mounts Mount on its own richer mux instead.
func (w *Worker) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	w.Mount(mux)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		job, ok := w.Mgr.Get(r.PathValue("id"))
		if !ok {
			writeClusterError(rw, http.StatusNotFound, "unknown job "+r.PathValue("id"))
			return
		}
		writeClusterJSON(rw, http.StatusOK, JobStatusWire(job.Snapshot()))
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		job, ok := w.Mgr.Cancel(r.PathValue("id"))
		if !ok {
			writeClusterError(rw, http.StatusNotFound, "unknown job "+r.PathValue("id"))
			return
		}
		writeClusterJSON(rw, http.StatusOK, JobStatusWire(job.Snapshot()))
	})
	mux.HandleFunc("POST /datasets", func(rw http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
			writeClusterError(rw, http.StatusUnsupportedMediaType, "binary dataset upload only")
			return
		}
		d, err := dataset.ReadBinary(r.Body)
		if err != nil {
			writeClusterError(rw, http.StatusBadRequest, "decode binary dataset: "+err.Error())
			return
		}
		h, created, err := w.Reg.Put(d)
		if err != nil {
			writeClusterError(rw, http.StatusInternalServerError, err.Error())
			return
		}
		defer h.Release()
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		writeClusterJSON(rw, status, wire.UploadResponse{
			DatasetInfo: wire.DatasetInfo{ID: h.ID(), Rows: d.N(), Dim: d.Dim(), Classes: d.Classes},
			Created:     created,
		})
	})
	mux.HandleFunc("GET /datasets/{id}", func(rw http.ResponseWriter, r *http.Request) {
		info, err := w.Reg.Stat(r.PathValue("id"))
		if err != nil {
			writeClusterError(rw, statusForRegistry(err), err.Error())
			return
		}
		writeClusterJSON(rw, http.StatusOK, wire.DatasetInfo{
			ID: info.ID, Name: info.Name, Rows: info.Rows, Dim: info.Dim,
			Classes: info.Classes, Regression: info.Regression, Bytes: info.Bytes,
			InMemory: info.InMemory, OnDisk: info.OnDisk, Refs: info.Refs,
			CreatedAt: info.CreatedAt,
		})
	})
	return mux
}

// JobStatusWire renders a job snapshot in the shared wire shape, for the
// shard worker's handlers and svserver's job endpoints alike.
func JobStatusWire(s jobs.Snapshot) *wire.JobStatus {
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

func statusForRegistry(err error) int {
	if errors.Is(err, registry.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func writeClusterJSON(rw http.ResponseWriter, status int, body any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	if err := json.NewEncoder(rw).Encode(body); err != nil {
		log.Printf("cluster: encode response: %v", err)
	}
}

func writeClusterError(rw http.ResponseWriter, status int, msg string) {
	writeClusterJSON(rw, status, wire.ErrorResponse{Error: msg})
}
