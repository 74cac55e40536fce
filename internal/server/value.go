package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/core"
	"knnshapley/internal/jobs"
	"knnshapley/internal/registry"
	"knnshapley/internal/wire"
)

// The JSON types live in internal/wire, shared with cmd/svcli so the two
// commands cannot drift; the local aliases keep the handlers readable.
type (
	payload       = wire.Payload
	valueRequest  = wire.ValueRequest
	valueResponse = wire.ValueResponse
)

// jobMeta is the submission context the result endpoint needs beyond the
// Report itself; it rides along on the job via Spec.Meta.
type jobMeta struct {
	algorithm         string
	trainN            int
	trainRef, testRef string
}

// handleJobSubmit is POST /jobs: validate, enqueue, answer 202 with the
// job's initial status (which is already "done" on a cache hit).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req valueRequest
	if err := decodeJSON(w, r, s.maxBody, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	spec, status, err := s.buildSpec(&req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	job, err := s.submit(w, spec)
	if err != nil {
		return
	}
	writeJSON(w, http.StatusAccepted, jobStatus(job.Snapshot()))
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(job.Snapshot()))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.finishedJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	snap := job.Snapshot()
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

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(job.Snapshot()))
}

// handleValue is POST /value: the synchronous submit-and-wait wrapper over
// the job manager, kept for one-shot clients. It shares the result and
// session caches with the async path. Its response carries no job ID, so
// once the values have gone out the job keeps only its status: its report
// (or a cache hit's copy) is dropped, and GET /jobs/{id}/result answers 410.
func (s *Server) handleValue(w http.ResponseWriter, r *http.Request) {
	var req valueRequest
	if err := decodeJSON(w, r, s.maxBody, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	spec, status, err := s.buildSpec(&req)
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
	job.DropResult()
}

// resolveDataset turns one side of a valuation request into a pinned
// registry handle. A ref is a registry lookup — no payload decode, no
// validation, no fingerprinting. An inline payload is decoded, validated
// and auto-registered, so its content is addressable (and cached against)
// from this request on. The int is the HTTP status for a non-nil error.
func (s *Server) resolveDataset(ref string, inline *payload, side string) (*registry.Handle, int, error) {
	switch {
	case ref != "" && inline != nil:
		return nil, http.StatusBadRequest,
			fmt.Errorf("%s: give an inline payload or a ref, not both", side)
	case ref != "":
		return s.getDataset(ref, side)
	case inline != nil:
		h, _, status, err := s.putPayload(inline)
		if err != nil {
			return nil, status, fmt.Errorf("%s: %w", side, err)
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
func (s *Server) sessionValuer(trainID string, train *knnshapley.Dataset, k int, metricName string, precision knnshapley.Precision, workers, batch int) (*knnshapley.Valuer, error) {
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
func (s *Server) buildSpec(req *valueRequest) (*jobs.Spec, int, error) {
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
	if creq, ok := clusterRequest(p, req, v, train, test, trainH.ID(), testH.ID()); ok {
		if s.coord == nil {
			// On a single node, the methods the coordinator could scatter
			// route through the incremental evaluator when their full
			// neighbor ranking fits the rank-cache budget: it keeps that
			// ranking per (train, test, k, metric, precision), so valuing a
			// delta-derived dataset costs O(ΔN) — and a cold run costs one
			// ranked scan with values bit-identical to the engine's, so the
			// shared result cache stays coherent across both paths. A ranking
			// over the budget would be built whole for one replay and
			// dropped; the engine streams test points in batches instead.
			if s.inc.Fits(creq) {
				run = func(ctx context.Context) (*knnshapley.Report, error) {
					return s.incrementalReport(ctx, creq)
				}
			}
		} else {
			// In coordinator mode, distributable methods scatter across the
			// fleet instead. The cache key stays the local one on purpose:
			// the merge is bit-identical to local execution, so both paths
			// may share entries. ErrNoPeers degrades to the local run — a
			// lone coordinator still answers, just without fan-out.
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
	// The envelope is a by-reference copy of the request: inline payloads
	// were auto-registered by resolveDataset, so the refs are the durable
	// identity and the envelope stays a few hundred bytes whatever the
	// dataset size.
	byref := *req
	byref.Params = p
	byref.Train, byref.Test = nil, nil
	byref.TrainRef, byref.TestRef = trainH.ID(), testH.ID()
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
		Envelope: s.envelope("", byref),
		OnFinish: release,
	}, http.StatusOK, nil
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
		BatchSize: req.BatchSize,
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
func (s *Server) incrementalReport(ctx context.Context, creq cluster.Request) (*knnshapley.Report, error) {
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

// putPayload validates an inline payload and stores it, pinned; created
// reports new content. The int is the HTTP status for a non-nil error.
func (s *Server) putPayload(p *payload) (h *registry.Handle, created bool, status int, err error) {
	d, err := buildDataset(p)
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	if d.N() == 0 {
		// An empty payload passes dataset validation but is useless for
		// valuation and unstorable (no recoverable dimension) — reject it
		// as a client error before the registry refuses it as a server one.
		return nil, false, http.StatusBadRequest, errors.New("empty dataset")
	}
	if h, created, err = s.reg.Put(d); err != nil {
		return nil, false, putStatus(err), err
	}
	return h, created, http.StatusOK, nil
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
