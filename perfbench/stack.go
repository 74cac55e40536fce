package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/knn"
	"knnshapley/internal/planner"
	"knnshapley/internal/registry"
	"knnshapley/internal/vec"
	"knnshapley/internal/wire"
)

// stack replays svserver's request handling in process, as the sequence of
// public calls its layers make, with svserver's default configuration: the
// wire decode, registry resolve, Manager.Valuer session, a journaled job
// (Submit → Run) whose run is the cluster.Incremental rank-cache path (exact)
// or the planner plus the engine path (auto), and the wire encode. svserver
// is package main, so this is the only way to time its layers from outside.
// A stack with a nil tracer is the untraced replay.
type stack struct {
	tr    *tracer
	k     int
	reg   *registry.Registry
	idx   *registry.IndexStore
	jw    *journal.Writer
	jrn   *timedJournal
	mgr   *jobs.Manager
	cache *cluster.RankCache
	lib   libReplay
	pre   map[string]*knn.Precomp
}

func newStack(dir string, k int) (*stack, error) {
	reg, err := registry.New(registry.Config{Dir: filepath.Join(dir, "datasets"), DiskBudget: 4 << 30})
	if err != nil {
		return nil, err
	}
	idx, err := registry.NewIndexStore(registry.IndexConfig{Dir: filepath.Join(dir, "indexes"), DiskBudget: 1 << 30})
	if err != nil {
		return nil, err
	}
	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal"), FsyncInterval: 25 * time.Millisecond, Retain: 15 * time.Minute})
	if err != nil {
		return nil, err
	}
	tj := &timedJournal{inner: jw}
	return &stack{
		k: k, reg: reg, idx: idx, jw: jw, jrn: tj,
		mgr:   jobs.New(jobs.Config{Journal: tj}),
		cache: cluster.NewRankCache(0),
		pre:   map[string]*knn.Precomp{},
	}, nil
}

func (s *stack) close() {
	s.mgr.Close()
	s.jw.Close()
}

// put stores d, as resolveDataset does for an inline payload.
func (s *stack) put(d *dataset.Dataset) (*registry.Handle, error) {
	sp := s.tr.begin("registry.put")
	defer s.tr.end(sp)
	h, _, err := s.reg.Put(d)
	return h, err
}

// get pins a stored dataset by ID.
func (s *stack) get(id string) (*registry.Handle, error) {
	sp := s.tr.begin("registry.get")
	defer s.tr.end(sp)
	return s.reg.Get(id)
}

// submit runs one job through the manager and waits for it: the queue wait
// (Submit returned → Run started) is recorded as its own span. The job's
// run waits until this goroutine has opened the jobs.wait span, so the two
// goroutines never touch the span stack at the same time.
func (s *stack) submit(spec jobs.Spec) (*jobs.Job, error) {
	var waitFrom time.Time
	waiting := make(chan struct{})
	wrap := func(run func()) {
		<-waiting
		s.tr.record("jobs.queue_wait", waitFrom, time.Now())
		sp := s.tr.begin("jobs.run")
		run()
		s.tr.end(sp)
	}
	if run := spec.Run; run != nil {
		spec.Run = func(ctx context.Context) (rep *knnshapley.Report, err error) {
			wrap(func() { rep, err = run(ctx) })
			return rep, err
		}
	}
	if run := spec.RunAny; run != nil {
		spec.RunAny = func(ctx context.Context) (v any, err error) {
			wrap(func() { v, err = run(ctx) })
			return v, err
		}
	}
	sp := s.tr.begin("jobs.submit")
	job, err := s.mgr.Submit(spec)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	waitFrom = time.Now()
	sp = s.tr.begin("jobs.wait")
	close(waiting)
	<-job.Done()
	s.tr.end(sp)
	return job, nil
}

// value replays POST /value for body; pick is the method the server's
// planner chose for an auto request. It returns the response values.
func (s *stack) value(body []byte, pick string) ([]float64, error) {
	sp := s.tr.begin("wire.decode")
	var req wire.ValueRequest
	err := json.Unmarshal(body, &req)
	var inline *dataset.Dataset
	if err == nil && req.Test != nil {
		inline, err = knnshapley.NewClassificationDataset(req.Test.X, req.Test.Labels)
	}
	s.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	trainH, err := s.get(req.TrainRef)
	if err != nil {
		return nil, err
	}
	defer trainH.Release()
	var testH *registry.Handle
	if inline != nil {
		testH, err = s.put(inline)
	} else {
		testH, err = s.get(req.TestRef)
	}
	if err != nil {
		return nil, err
	}
	defer testH.Release()
	train, test := trainH.Dataset(), testH.Dataset()

	sp = s.tr.begin("jobs.session")
	v, err := s.mgr.Valuer(trainH.ID()+fmt.Sprintf("|k=%d", req.K), func() (*knnshapley.Valuer, error) {
		sp := s.tr.begin("knnshapley.new")
		defer s.tr.end(sp)
		return knnshapley.New(train, knnshapley.WithK(req.K), knnshapley.WithMetric(knnshapley.L2),
			knnshapley.WithPrecision(knnshapley.Float64),
			knnshapley.WithIndexStore(knnshapley.WrapIndexStore(s.idx)))
	})
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}

	p := req.Params
	var run func(ctx context.Context) (*knnshapley.Report, error)
	switch ap := p.(type) {
	case knnshapley.ExactParams:
		run = func(ctx context.Context) (*knnshapley.Report, error) {
			vals, err := s.incremental(ctx, train, test, trainH.ID(), testH.ID())
			return &knnshapley.Report{Values: vals, Method: "exact"}, err
		}
	case knnshapley.AutoParams:
		run = func(ctx context.Context) (*knnshapley.Report, error) {
			return s.auto(ctx, v, train, test, trainH.ID(), ap, pick)
		}
	default:
		return nil, fmt.Errorf("replay does not cover algorithm %q", p.Name())
	}
	reqJSON, _ := json.Marshal(wire.ValueRequest{Algorithm: p.Name(), K: req.K, Params: p, TrainRef: trainH.ID(), TestRef: testH.ID()})
	env, _ := json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, Request: reqJSON})
	job, err := s.submit(jobs.Spec{
		CacheKey:   fmt.Sprintf("%s|%s|%s|k=%d|%s", trainH.ID(), testH.ID(), p.Name(), req.K, p.CacheKey()),
		TotalUnits: test.N(),
		Run:        run,
		Envelope:   env,
	})
	if err != nil {
		return nil, err
	}
	rep, err := job.Report()
	if err != nil {
		return nil, err
	}
	sp = s.tr.begin("wire.encode")
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(wire.ValueResponse{
		Values: rep.Values, N: train.N(), Algorithm: p.Name(), KStar: rep.KStar,
		Fingerprint: trainH.ID(), TrainRef: trainH.ID(), TestRef: testH.ID(),
	})
	s.tr.end(sp)
	return rep.Values, err
}

// incremental replays cluster.Incremental.Values for an exact request:
// rank-cache lookup, then a lineage patch (scan of the appended rows +
// PatchAppend) or a from-scratch build (full scan + NewRankEntry), then the
// replay of the cached ranking into values.
func (s *stack) incremental(ctx context.Context, train, test *dataset.Dataset, trainID, testID string) ([]float64, error) {
	key := cluster.NewRankKey(trainID, testID, s.k, "", knn.Float64.String())
	e := s.cache.Get(key)
	if e != nil && (e.N() != train.N() || e.NTest() != test.N()) {
		e = nil
	}
	if e == nil {
		var err error
		if e, err = s.buildEntry(ctx, train, test, trainID, testID); err != nil {
			return nil, err
		}
		s.cache.Put(key, e)
	}
	sp := s.tr.begin("cluster.replay")
	defer s.tr.end(sp)
	return e.Values("exact", s.k, 0)
}

func (s *stack) buildEntry(ctx context.Context, train, test *dataset.Dataset, trainID, testID string) (*cluster.RankEntry, error) {
	rows, offset := train, 0
	var parent *cluster.RankEntry
	if lin, ok := s.reg.LineageOf(trainID); ok && lin.Parent != "" && len(lin.Removed) == 0 {
		pe := s.cache.Get(cluster.NewRankKey(lin.Parent, testID, s.k, "", knn.Float64.String()))
		if pe != nil && pe.N() == train.N()-lin.Appended && pe.NTest() == test.N() {
			parent, offset = pe, train.N()-lin.Appended
			rows = sliceRows(train, offset, train.N())
		}
	}
	sp := s.tr.begin("cluster.scan")
	sr, err := cluster.ComputeShardReport(ctx, rows, test, cluster.ShardParams{
		K: s.k, Metric: vec.L2, Precision: knn.Float64, GlobalOffset: offset, GlobalN: train.N(),
	})
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = s.tr.begin("cluster.rank_build")
	defer s.tr.end(sp)
	if parent != nil {
		return parent.PatchAppend(sr)
	}
	return cluster.NewRankEntry(sr)
}

// sliceRows is the row view cluster.Incremental scans for appended rows.
func sliceRows(d *dataset.Dataset, start, end int) *dataset.Dataset {
	return &dataset.Dataset{
		Name:    fmt.Sprintf("%s[%d:%d]", d.Name, start, end),
		Classes: d.Classes,
		X:       d.X[start:end],
		Labels:  d.Labels[start:end],
	}
}

// auto replays knnshapley.AutoParams.Run: plan, then the delegate's engine
// path. The delegate is the server's pick, so a planner whose host probe
// differs in this process cannot make the replay diverge.
func (s *stack) auto(ctx context.Context, v *knnshapley.Valuer, train, test *dataset.Dataset, trainID string, p knnshapley.AutoParams, pick string) (*knnshapley.Report, error) {
	sp := s.tr.begin("planner.plan")
	d := planner.Plan(planner.Workload{
		N: train.N(), Dim: train.Dim(), NTest: test.N(), K: s.k, Eps: p.Eps, Delta: p.Delta, L2: true,
		KDIndexReady: v.HasPersistedIndex("kd", core.KDIndexKey(0)),
	})
	s.tr.end(sp)
	if pick == "" {
		pick = d.Method
	}
	var eps float64
	switch pick {
	case "exact":
	case "truncated":
		eps = p.Eps
	case "kd", "lsh":
		// Index-backed picks run whole, as one span.
		var m knnshapley.Method = knnshapley.KDParams{Eps: p.Eps}
		if pick == "lsh" {
			m = knnshapley.LSHParams{Eps: p.Eps, Delta: p.Delta, Seed: p.Seed}
		}
		sp = s.tr.begin("core.index_method")
		defer s.tr.end(sp)
		return v.Evaluate(ctx, knnshapley.Request{Params: m, Test: test})
	default:
		return nil, fmt.Errorf("replay does not cover the planner pick %q", pick)
	}
	pre := s.pre[trainID]
	if pre == nil {
		sp = s.tr.begin("knn.precomp")
		pre = knn.NewPrecomp(train, vec.L2, knn.Float64)
		s.tr.end(sp)
		s.pre[trainID] = pre
	}
	vals, err := s.lib.value(s.tr, train, test, pre, s.k, pick, eps)
	return &knnshapley.Report{Values: vals, Method: pick}, err
}

// delta replays PUT /datasets/{parent}/delta and returns the child ID.
func (s *stack) delta(parent string, body []byte) (string, error) {
	sp := s.tr.begin("wire.decode")
	var dreq wire.DeltaRequest
	err := json.Unmarshal(body, &dreq)
	var app *dataset.Dataset
	if err == nil {
		app, err = knnshapley.NewClassificationDataset(dreq.Append.X, dreq.Append.Labels)
	}
	s.tr.end(sp)
	if err != nil {
		return "", fmt.Errorf("decode delta: %w", err)
	}
	ah, err := s.put(app)
	if err != nil {
		return "", err
	}
	appendRef := ah.ID()
	ah.Release()
	// deltaSpec pins the parent and the append rows for the job's lifetime.
	ph, err := s.get(parent)
	if err != nil {
		return "", err
	}
	defer ph.Release()
	pin, err := s.get(appendRef)
	if err != nil {
		return "", err
	}
	defer pin.Release()
	reqJSON, _ := json.Marshal(wire.DeltaJob{Parent: parent, AppendRef: appendRef})
	env, _ := json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, Kind: wire.JobKindDelta, Request: reqJSON})
	job, err := s.submit(jobs.Spec{TotalUnits: 1, Envelope: env, RunAny: func(ctx context.Context) (any, error) {
		ah, err := s.get(appendRef)
		if err != nil {
			return nil, err
		}
		defer ah.Release()
		sp := s.tr.begin("registry.apply_delta")
		ch, lin, created, err := s.reg.ApplyDelta(parent, registry.Delta{Append: ah.Dataset()})
		s.tr.end(sp)
		if err != nil {
			return nil, err
		}
		defer ch.Release()
		info, err := s.reg.Stat(ch.ID())
		if err != nil {
			return nil, err
		}
		return &wire.DeltaResponse{
			DatasetInfo: wire.DatasetInfo{ID: info.ID, Rows: info.Rows, Dim: info.Dim, Classes: info.Classes, Bytes: info.Bytes, Parent: parent},
			Created:     created, Appended: lin.Appended,
		}, nil
	}})
	if err != nil {
		return "", err
	}
	val, err := job.Value()
	if err != nil {
		return "", err
	}
	sp = s.tr.begin("wire.encode")
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(val)
	s.tr.end(sp)
	return val.(*wire.DeltaResponse).ID, err
}

// timedJournal times the journal appends the job manager makes. The
// manager may call Finished after the job's Done channel closes, so the
// calls are timed on their own rather than as spans.
type timedJournal struct {
	inner *journal.Writer
	mu    sync.Mutex
	calls []float64
}

func (j *timedJournal) note(start time.Time) {
	d := ms(time.Since(start))
	j.mu.Lock()
	j.calls = append(j.calls, d)
	j.mu.Unlock()
}

func (j *timedJournal) Submitted(id string, at time.Time, envelope []byte) {
	start := time.Now()
	j.inner.Submitted(id, at, envelope)
	j.note(start)
}

func (j *timedJournal) Running(id string, at time.Time) {
	start := time.Now()
	j.inner.Running(id, at)
	j.note(start)
}

func (j *timedJournal) Finished(id, state, errMsg string, at time.Time) {
	start := time.Now()
	j.inner.Finished(id, state, errMsg, at)
	j.note(start)
}

// appends returns the recorded journal append durations.
func (j *timedJournal) appends() []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]float64(nil), j.calls...)
}
