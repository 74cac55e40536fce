package server

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/jobs"
	"knnshapley/internal/wire"
)

// maxShardBody bounds a shard submission body; requests are by-reference, so
// a few KiB of JSON is already generous.
const maxShardBody = 1 << 20

// handleShardSubmit is POST /shard/jobs: resolve the by-reference datasets,
// validate the shard geometry, enqueue a RunAny job computing the shard's
// report with cluster.ComputeShardReport. The coordinator then polls and
// cancels it on the ordinary job endpoints and fetches the report from
// GET /shard/jobs/{id}/result.
func (s *Server) handleShardSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.ShardRequest
	if err := decodeJSON(w, r, maxShardBody, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode shard request: "+err.Error())
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("k = %d, want >= 1", req.K))
		return
	}
	metric, err := knnshapley.ParseMetric(req.Metric)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	precision, err := knnshapley.ParsePrecision(req.Precision)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	trainH, status, err := s.getDataset(req.TrainRef, "train")
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	testH, status, err := s.getDataset(req.TestRef, "test")
	if err != nil {
		trainH.Release()
		writeError(w, status, err.Error())
		return
	}
	release := func() { trainH.Release(); testH.Release() }

	train, test := trainH.Dataset(), testH.Dataset()
	params := cluster.ShardParams{
		K: req.K, Metric: metric, Precision: precision,
		Limit: req.Limit, GlobalOffset: req.GlobalOffset, GlobalN: req.GlobalN,
		BatchSize: req.BatchSize,
	}
	if train.Dim() != test.Dim() {
		release()
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("train dim %d != test dim %d", train.Dim(), test.Dim()))
		return
	}
	job, err := s.submit(w, &jobs.Spec{
		TotalUnits: test.N(),
		RunAny: func(ctx context.Context) (any, error) {
			return cluster.ComputeShardReport(ctx, train, test, params)
		},
		OnFinish: release,
	})
	if err != nil {
		return
	}
	s.shardJobs.Add(1)
	writeJSON(w, http.StatusAccepted, jobStatus(job.Snapshot()))
}

// handleShardResult is GET /shard/jobs/{id}/result: the binary report of a
// done shard sub-job.
func (s *Server) handleShardResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.finishedJob(w, id)
	if !ok {
		return
	}
	v, err := job.Value()
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	sr, ok := v.(*cluster.ShardReport)
	if !ok {
		writeError(w, http.StatusConflict, "job "+id+" is not a shard sub-job")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Reports compress well (packed indices are near-sequential, distances
	// share exponent bytes), so gzip when the caller accepts it and the body
	// is big enough to beat the frame overhead. BestSpeed: the gather path is
	// latency-sensitive and level 9 buys little on float-heavy payloads.
	if acceptsGzip(r) && sr.EncodedBytes() > gzipMinReportBytes {
		w.Header().Set("Content-Encoding", "gzip")
		zw, _ := gzip.NewWriterLevel(w, gzip.BestSpeed)
		_, werr := sr.WriteTo(zw)
		if err := zw.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			log.Printf("cluster: stream shard report %s: %v", id, werr)
		}
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(sr.EncodedBytes(), 10))
	if _, err := sr.WriteTo(w); err != nil {
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
