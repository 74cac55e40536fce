package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knnshapley"
	"knnshapley/internal/dataset"
	"knnshapley/internal/wire"
)

// serveOp is one POST /value of serve_mixed as the client saw it.
type serveOp struct {
	id      int
	kind    string // "exact", "auto" or "repeat"
	method  string // "exact" or "auto": the kind of the source op
	source  int    // the op whose body a repeat resends
	body    []byte
	reply   valueReply
	c       call
	err     error
	plainMs float64 // untraced replay wall time (traced run)
}

// runServeMixed is the serve_mixed workload: a real svserver, closed loop
// over several connections, POST /value by train ref with a fresh inline
// test set; the op mix is exact, auto and byte-identical repeats.
func runServeMixed(e *env) error {
	c, k := e.cfg.Serve, e.cfg.K
	train := dataset.MNISTLike(c.N, e.inputSeed(1))
	warm := dataset.MNISTLike(c.TestPoints, e.inputSeed(2))
	e.recordHost(int64(c.N)*int64(train.Dim())*8*2, "train matrix + rank-cache entry per cold build, in the server")

	var (
		srv     *svProc
		trainID string
		setups  []float64
		uploads []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < c.Setups; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		start := time.Now()
		var err error
		if srv, err = startServer(e, filepath.Join(e.tmp, fmt.Sprintf("server-%d", i)), c.Connections); err != nil {
			return err
		}
		id, up, err := srv.upload(train)
		if err != nil {
			return err
		}
		trainID = id
		uploads = append(uploads, ms(up.dur))
		if _, _, err := srv.value(serveBody(k, trainID, warm, knnshapley.ExactParams{})); err != nil {
			return fmt.Errorf("first valuation: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e.rep.set("setup_s", median(setups), fmt.Sprintf("median of %d setups: boot + binary upload + first cold valuation", len(setups)))
	e.rep.set("svserver.upload_ms", median(uploads), fmt.Sprintf("median of %d binary uploads of the train set", len(uploads)))

	// The op sequence is a pure function of the seed and the op index. Kinds
	// follow the golden-ratio sequence, so every run has the configured mix
	// to within a few ops (a random draw moved the median request between
	// the latency modes of the kinds from seed to seed); a repeat resends
	// the body of an op 2..9 earlier, drawn from the seed and resolved to
	// the first op that carried that body.
	kindOf := func(i int) (string, int) {
		rng := rand.New(rand.NewPCG(e.inputSeed(3), uint64(i)))
		switch u := math.Mod(float64(i)*0.6180339887498949, 1); {
		case u < c.ExactShare:
			return "exact", i
		case u < c.ExactShare+c.AutoShare || i < 2:
			return "auto", i
		default:
			return "repeat", i - 2 - rng.IntN(min(8, i-1))
		}
	}
	makeOp := func(i int) *serveOp {
		op := &serveOp{id: i}
		op.kind, op.source = kindOf(i)
		op.method = op.kind
		for op.method == "repeat" {
			op.method, op.source = kindOf(op.source)
		}
		var p knnshapley.Method = knnshapley.ExactParams{}
		if op.method == "auto" {
			p = knnshapley.AutoParams{Eps: c.AutoEps}
		}
		op.body = serveBody(k, trainID, e.serveTest(op.source), p)
		return op
	}

	if err := startTimedPhase(srv.pid()); err != nil {
		return err
	}
	before, err := srv.statz()
	if err != nil {
		return err
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		ops   []*serveOp
		wg    sync.WaitGroup
		start = time.Now()
	)
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	for w := 0; w < c.Connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := makeOp(int(next.Add(1) - 1))
				op.reply, op.c, op.err = srv.value(op.body)
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := srv.statz()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return err
	}
	srv.stop()
	srv = nil

	sort.Slice(ops, func(i, j int) bool { return ops[i].id < ops[j].id })
	var lat, reqBytes, respBytes []float64
	for _, op := range ops {
		e.rep.attempted++
		if op.err != nil {
			e.rep.fail(op.id, "op %d (%s): %v", op.id, op.kind, op.err)
			continue
		}
		lat = append(lat, ms(op.c.dur))
		reqBytes = append(reqBytes, float64(len(op.body)))
		respBytes = append(respBytes, float64(len(op.c.body)))
	}
	e.setLatency(lat, "requests", len(lat), elapsed)
	e.rep.set("peak_rss_mb", rss, "VmHWM over the timed phase of the svserver process")
	e.rep.set("svserver.value_ms", median(lat), fmt.Sprintf("client span, %d requests", len(lat)))
	e.rep.set("wire.request_bytes", median(reqBytes), "median request body")
	e.rep.set("wire.response_bytes", median(respBytes), "median response body")
	e.setStatzCounts(before, after)
	return e.verifyServe(ops, train, warm, trainID)
}

// serveTest is the inline test set op source sends, and every repeat of it.
func (e *env) serveTest(source int) *dataset.Dataset {
	return dataset.MNISTLike(e.cfg.Serve.TestPoints, e.inputSeed(1_000_000+uint64(source)))
}

// serveBody is the JSON of one POST /value by train ref with an inline test.
func serveBody(k int, trainRef string, test *dataset.Dataset, p knnshapley.Method) []byte {
	b, err := json.Marshal(wire.ValueRequest{K: k, TrainRef: trainRef, Test: payloadOf(test), Params: p})
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}

// verifyServe replays every completed op in process, in op order, and
// checks the HTTP values against it bit for bit. Independently of the
// replay, exact values (exact ops and auto ops the planner sent to exact)
// must equal a separate Valuer's Exact bit for bit, and approximate picks
// must stay within eps of it. A traced run replays through a traced and an
// untraced stack and reports the per-layer breakdown.
func (e *env) verifyServe(ops []*serveOp, train, warm *dataset.Dataset, trainID string) error {
	c, k := e.cfg.Serve, e.cfg.K
	stacks, err := e.replayStacks(func(s *stack) error {
		h, err := s.put(train)
		if err != nil {
			return err
		}
		h.Release()
		if h.ID() != trainID {
			return fmt.Errorf("replay train ID %s != server's %s", h.ID(), trainID)
		}
		_, err = s.value(serveBody(k, trainID, warm, knnshapley.ExactParams{}), "")
		return err
	})
	if err != nil {
		return err
	}
	defer closeStacks(stacks)
	ref, err := knnshapley.New(train, knnshapley.WithK(k))
	if err != nil {
		return err
	}
	refExact := map[int][]float64{} // by source op
	exactOf := func(source int) ([]float64, error) {
		if vals, ok := refExact[source]; ok {
			return vals, nil
		}
		rep, err := ref.Exact(context.Background(), e.serveTest(source))
		if err != nil {
			return nil, err
		}
		refExact[source] = rep.Values
		return rep.Values, nil
	}
	var tracedWall, plainWall time.Duration
	approx := 0
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		pick := ""
		if op.reply.Plan != nil {
			pick = op.reply.Plan.Method
		}
		want := valuesHash(op.reply.Values)
		var vals []float64
		for i, s := range orderStacks(stacks, op.id) {
			s.tr.setOp(op.id)
			begin := time.Now()
			root := s.tr.begin("op")
			got, err := s.value(op.body, pick)
			s.tr.end(root)
			d := time.Since(begin)
			if s.tr != nil {
				tracedWall += d
			} else {
				plainWall += d
				op.plainMs = ms(d)
			}
			if err != nil {
				e.rep.fail(op.id, "op %d (%s): replay: %v", op.id, op.kind, err)
				break
			}
			if marshalHash(got) != want {
				e.rep.fail(op.id, "op %d (%s): HTTP values differ from the in-process replay", op.id, op.kind)
				break
			}
			if i == 0 {
				vals = got
			}
		}
		switch {
		case op.method == "exact" || pick == "exact":
			exact, err := exactOf(op.source)
			switch {
			case err != nil:
				e.rep.fail(op.id, "op %d: exact reference: %v", op.id, err)
			case marshalHash(exact) != want:
				e.rep.fail(op.id, "op %d (%s): HTTP values differ from Valuer.Exact", op.id, op.kind)
			}
		case (pick == "truncated" || pick == "kd") && vals != nil:
			if approx++; approx%4 != 1 {
				continue
			}
			// Theorem 2 against the exact values of the same inputs, on every
			// fourth approximate op (each costs a full exact valuation).
			exact, err := exactOf(op.source)
			if err != nil {
				e.rep.fail(op.id, "op %d: exact reference: %v", op.id, err)
				continue
			}
			worst := maxAbsDiff(vals, exact)
			e.rep.noteErr(worst)
			if worst > c.AutoEps {
				e.rep.fail(op.id, "op %d: |auto - exact| = %g > eps %g", op.id, worst, c.AutoEps)
			}
		}
	}
	if !e.traced {
		return nil
	}
	var service []float64
	for _, op := range ops {
		if op.err == nil {
			service = append(service, ms(op.c.dur)-op.plainMs)
		}
	}
	e.setServerLayers(stacks, service, tracedWall, plainWall)
	return nil
}

// replayStacks builds the replay stacks of a run: one untraced stack, plus
// a traced one in a traced run. prime brings each to the server's state
// after setup, untraced.
func (e *env) replayStacks(prime func(*stack) error) ([]*stack, error) {
	n := 1
	if e.traced {
		n = 2
	}
	var stacks []*stack
	for i := 0; i < n; i++ {
		s, err := newStack(filepath.Join(e.tmp, fmt.Sprintf("replay-%d", i)), e.cfg.K)
		if err != nil {
			closeStacks(stacks)
			return nil, err
		}
		stacks = append(stacks, s)
		if err := prime(s); err != nil {
			closeStacks(stacks)
			return nil, fmt.Errorf("prime replay stack: %w", err)
		}
		if i == 1 {
			s.tr = &tracer{}
		}
	}
	return stacks, nil
}

func closeStacks(stacks []*stack) {
	for _, s := range stacks {
		s.close()
	}
}

// orderStacks alternates which stack replays an op first.
func orderStacks(stacks []*stack, op int) []*stack {
	if len(stacks) == 2 && op%2 == 1 {
		return []*stack{stacks[1], stacks[0]}
	}
	return stacks
}

// setServerLayers reports the per-layer medians of a traced server replay.
// service holds per op the client-seen time minus the untraced replay time:
// what HTTP, concurrency and the server's unreplayed glue add.
func (e *env) setServerLayers(stacks []*stack, service []float64, tracedWall, plainWall time.Duration) {
	traced := stacks[1]
	self := traced.tr.selfByOp()
	for _, layer := range []string{"wire.decode", "wire.encode", "registry.put", "registry.get", "registry.apply_delta",
		"jobs.queue_wait", "jobs.run", "jobs.session", "knnshapley.new", "knn.precomp", "cluster.scan", "cluster.rank_build",
		"cluster.replay", "knn.scan", "vec.argsort", "kheap.topk", "core.recurrence", "core.reduce"} {
		setLayer(e, self, layer, "replayed ops")
	}
	j := traced.jrn.appends()
	e.rep.set("journal.append_ms", median(j), fmt.Sprintf("median of %d Submitted/Running/Finished calls (inside jobs.* self time)", len(j)))
	e.rep.set("journal.records", float64(len(j)), "records the replayed manager journaled, setup included")
	e.rep.set("unattributed_ms", median(service), fmt.Sprintf("median over %d ops of client latency - untraced replay time", len(service)))
	e.rep.set("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds(),
		fmt.Sprintf("traced replay %.3fs / untraced replay %.3fs over the same ops", tracedWall.Seconds(), plainWall.Seconds()))
}
