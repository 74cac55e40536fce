package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"

	"knnshapley"
	"knnshapley/internal/jobs"
	"knnshapley/internal/registry"
	"knnshapley/internal/wire"
)

// datasetInfo maps one registry entry onto the wire type, attaching the
// parent ID for datasets minted by a delta.
func (s *Server) datasetInfo(info registry.Info) wire.DatasetInfo {
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
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	var h *registry.Handle
	var created bool
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		d, err := knnshapley.ReadBinary(http.MaxBytesReader(w, r.Body, s.maxBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "decode binary dataset: "+err.Error())
			return
		}
		if name := r.URL.Query().Get("name"); name != "" {
			d.Name = name
		}
		if h, created, err = s.reg.Put(d); err != nil {
			writeError(w, putStatus(err), err.Error())
			return
		}
	} else {
		var p payload
		if err := decodeJSON(w, r, s.maxBody, &p); err != nil {
			writeError(w, http.StatusBadRequest, "decode dataset: "+err.Error())
			return
		}
		var status int
		var err error
		if h, created, status, err = s.putPayload(&p); err != nil {
			writeError(w, status, err.Error())
			return
		}
	}
	defer h.Release()
	info, err := s.reg.Stat(h.ID())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	info.Refs-- // the count a GET would see: without this handler's own pin
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, wire.UploadResponse{DatasetInfo: s.datasetInfo(info), Created: created})
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.List()
	resp := wire.DatasetListResponse{Datasets: make([]wire.DatasetInfo, len(infos))}
	for i, info := range infos {
		resp.Datasets[i] = s.datasetInfo(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDatasetStat is GET /datasets/{id}: JSON metadata by default; with
// Accept: application/octet-stream, the dataset itself in the binary
// format, from verified content only (Registry.WriteTo).
func (s *Server) handleDatasetStat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if strings.Contains(r.Header.Get("Accept"), "application/octet-stream") {
		out := &binaryWriter{w: w}
		if err := s.reg.WriteTo(out, id); err != nil {
			if !out.started {
				// WriteTo verifies the dataset before its first write, so an
				// unknown ID or a file that failed verification still
				// answers as a JSON error.
				writeError(w, registryStatus(err), err.Error())
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

// binaryWriter marks the response as application/octet-stream on its first
// write, so a handler can still answer an error as JSON until then.
type binaryWriter struct {
	w       http.ResponseWriter
	started bool
}

func (b *binaryWriter) Write(p []byte) (int, error) {
	if !b.started {
		b.started = true
		b.w.Header().Set("Content-Type", "application/octet-stream")
	}
	return b.w.Write(p)
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleIndexSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.IndexRequest
	if err := decodeJSON(w, r, s.maxBody, &req); err != nil {
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
	writeJSON(w, http.StatusAccepted, jobStatus(job.Snapshot()))
}

// indexSpec validates one index request and turns it into a job spec: the
// dataset is pinned for the job's lifetime, the envelope carries the
// by-reference request (JobEnvelope kind "index") so a crash replays the
// build, and the run drives the session's EnsureIndex — reload when the
// store already holds the artifact, build-and-persist otherwise. The int is
// the HTTP status for a non-nil error.
func (s *Server) indexSpec(req *wire.IndexRequest) (*jobs.Spec, int, error) {
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
	h, status, err := s.getDataset(req.Dataset, "dataset")
	if err != nil {
		return nil, status, err
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
		Envelope: s.envelope(wire.JobKindIndex, req),
		OnFinish: h.Release,
	}, http.StatusOK, nil
}

func (s *Server) handleIndexList(w http.ResponseWriter, r *http.Request) {
	infos := s.indexes.List()
	resp := wire.IndexListResponse{Indexes: make([]wire.IndexInfo, len(infos))}
	for i, info := range infos {
		resp.Indexes[i] = indexInfo(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIndexStat(w http.ResponseWriter, r *http.Request) {
	info, err := s.indexes.Stat(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, indexInfo(info))
}

func (s *Server) handleIndexDelete(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleDatasetDelta(w http.ResponseWriter, r *http.Request) {
	var dreq wire.DeltaRequest
	if err := decodeJSON(w, r, s.maxBody, &dreq); err != nil {
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
		h, _, status, err := s.putPayload(dreq.Append)
		if err != nil {
			writeError(w, status, "append: "+err.Error())
			return
		}
		defer h.Release()
		appendRef = h.ID()
	}
	spec, status, err := s.deltaSpec(&wire.DeltaJob{Parent: r.PathValue("id"), AppendRef: appendRef, Remove: dreq.Remove})
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
		writeCanceled(w, StatusClientClosedRequest, "canceled: client closed the connection")
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
func (s *Server) deltaSpec(dj *wire.DeltaJob) (*jobs.Spec, int, error) {
	ph, status, err := s.getDataset(dj.Parent, "parent")
	if err != nil {
		return nil, status, err
	}
	release := ph.Release
	if dj.AppendRef != "" {
		ah, status, err := s.getDataset(dj.AppendRef, "append")
		if err != nil {
			ph.Release()
			return nil, status, err
		}
		release = func() { ph.Release(); ah.Release() }
	}
	return &jobs.Spec{
		TotalUnits: 1,
		RunAny: func(ctx context.Context) (any, error) {
			return s.applyDelta(dj)
		},
		Envelope: s.envelope(wire.JobKindDelta, dj),
		OnFinish: release,
	}, http.StatusOK, nil
}

// applyDelta resolves the append rows and applies the delta, rendering the
// child's wire metadata.
func (s *Server) applyDelta(dj *wire.DeltaJob) (*wire.DeltaResponse, error) {
	var app *knnshapley.Dataset
	if dj.AppendRef != "" {
		ah, err := s.reg.Get(dj.AppendRef)
		if err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		defer ah.Release()
		app = ah.Dataset()
	}
	ch, lin, created, err := s.reg.ApplyDelta(dj.Parent, registry.Delta{Append: app, Remove: dj.Remove})
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
