package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"knnshapley"
	"knnshapley/internal/dataset"
	"knnshapley/internal/wire"
)

// arrival is one delta_stream arrival: append rows to the newest version,
// then value the child.
type arrival struct {
	id        int
	deltaBody []byte
	valueBody []byte
	child     string
	reply     valueReply
	put, post call
	latency   time.Duration // from when the arrival was due
	late      time.Duration // how late the generator sent it
	err       error
	plainMs   float64
}

// runDeltaStream is the delta_stream workload: a real svserver, open loop
// at a fixed arrival rate, each arrival a PUT /datasets/{id}/delta of fresh
// rows onto the newest version followed by an exact POST /value of the
// child against a test set uploaded at setup.
func runDeltaStream(e *env) error {
	c, k := e.cfg.Delta, e.cfg.K
	base := dataset.MNISTLike(c.N, e.inputSeed(1))
	test := dataset.MNISTLike(c.TestPoints, e.inputSeed(2))
	e.recordHost(int64(c.N)*int64(base.Dim())*8+int64(c.TestPoints)*int64(c.N)*16,
		"newest train version + its cached neighbor ranking, in the server")

	var (
		srv            *svProc
		baseID, testID string
		setups         []float64
		uploads        []float64
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
		if srv, err = startServer(e, filepath.Join(e.tmp, fmt.Sprintf("server-%d", i)), 1); err != nil {
			return err
		}
		for _, u := range []struct {
			d  *dataset.Dataset
			id *string
		}{{base, &baseID}, {test, &testID}} {
			id, up, err := srv.upload(u.d)
			if err != nil {
				return err
			}
			*u.id = id
			uploads = append(uploads, ms(up.dur))
		}
		if _, _, err := srv.value(refBody(k, baseID, testID)); err != nil {
			return fmt.Errorf("first valuation: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e.rep.set("setup_s", median(setups), fmt.Sprintf("median of %d setups: boot + binary uploads + first cold valuation", len(setups)))
	e.rep.set("svserver.upload_ms", median(uploads), fmt.Sprintf("median of %d binary uploads", len(uploads)))

	if err := startTimedPhase(srv.pid()); err != nil {
		return err
	}
	before, err := srv.statz()
	if err != nil {
		return err
	}
	n := int(math.Ceil(e.seconds * c.RatePerS))
	interval := time.Duration(float64(time.Second) / c.RatePerS)
	arrivals := make([]*arrival, 0, n)
	var backlog int
	parent := baseID
	start := time.Now()
	for i := 0; i < n; i++ {
		rows := dataset.MNISTLike(c.AppendRows, e.inputSeed(2_000_000+uint64(i)))
		a := &arrival{id: i}
		if a.deltaBody, err = json.Marshal(wire.DeltaRequest{Append: payloadOf(rows)}); err != nil {
			return err
		}
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		a.late = sent.Sub(due)
		backlog = max(backlog, int(sent.Sub(start)/interval)-i)
		a.put, a.err = srv.do("PUT", "/datasets/"+parent+"/delta", "application/json", a.deltaBody)
		if a.err == nil {
			var dr wire.DeltaResponse
			if a.err = json.Unmarshal(a.put.body, &dr); a.err == nil {
				a.child = dr.ID
				a.valueBody = refBody(k, a.child, testID)
				a.reply, a.post, a.err = srv.value(a.valueBody)
			}
		}
		a.latency = time.Since(due)
		arrivals = append(arrivals, a)
		if a.err != nil {
			break // later arrivals need this child
		}
		parent = a.child
	}
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

	var lat, late, puts, posts, reqBytes, respBytes []float64
	for _, a := range arrivals {
		e.rep.attempted++
		if a.err != nil {
			e.rep.fail(a.id, "arrival %d: %v", a.id, a.err)
			continue
		}
		lat = append(lat, ms(a.latency))
		late = append(late, ms(a.late))
		puts = append(puts, ms(a.put.dur))
		posts = append(posts, ms(a.post.dur))
		reqBytes = append(reqBytes, float64(len(a.deltaBody)+len(a.valueBody)))
		respBytes = append(respBytes, float64(len(a.put.body)+len(a.post.body)))
	}
	e.setLatency(lat, fmt.Sprintf("arrivals at %g/s, timed from when each was due", c.RatePerS), len(lat), elapsed)
	e.rep.set("peak_rss_mb", rss, "VmHWM over the timed phase of the svserver process")
	e.rep.set("svserver.delta_ms", median(puts), fmt.Sprintf("client span, %d PUT /datasets/{id}/delta", len(puts)))
	e.rep.set("svserver.value_ms", median(posts), fmt.Sprintf("client span, %d POST /value", len(posts)))
	e.rep.set("loadgen.late_p90_ms", quantile(late, 0.9), "p90 of send time - due time")
	e.rep.set("loadgen.backlog_max", float64(backlog), "most arrivals due but not yet sent")
	e.rep.set("wire.request_bytes", median(reqBytes), "median delta + value request bodies")
	e.rep.set("wire.response_bytes", median(respBytes), "median delta + value response bodies")
	e.setStatzCounts(before, after)
	return e.verifyDelta(arrivals, base, test, baseID, testID)
}

// refBody is the JSON of an exact POST /value with both sides by ref.
func refBody(k int, trainRef, testRef string) []byte {
	b, err := json.Marshal(wire.ValueRequest{K: k, TrainRef: trainRef, TestRef: testRef, Params: knnshapley.ExactParams{}})
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}

// verifyDelta replays the arrivals in process: every child ID must match
// the server's (content addressing) and every value vector must be
// bit-identical; every tenth child is also checked against a fresh Valuer.
func (e *env) verifyDelta(arrivals []*arrival, base, test *dataset.Dataset, baseID, testID string) error {
	k := e.cfg.K
	stacks, err := e.replayStacks(func(s *stack) error {
		for _, d := range []*dataset.Dataset{base, test} {
			h, err := s.put(d)
			if err != nil {
				return err
			}
			h.Release()
		}
		_, err := s.value(refBody(k, baseID, testID), "")
		return err
	})
	if err != nil {
		return err
	}
	defer closeStacks(stacks)
	parent := baseID
	var tracedWall, plainWall time.Duration
	for _, a := range arrivals {
		if a.err != nil {
			break
		}
		want := valuesHash(a.reply.Values)
		for _, s := range orderStacks(stacks, a.id) {
			s.tr.setOp(a.id)
			begin := time.Now()
			root := s.tr.begin("op")
			child, err := s.delta(parent, a.deltaBody)
			var got []float64
			if err == nil {
				got, err = s.value(a.valueBody, "")
			}
			s.tr.end(root)
			d := time.Since(begin)
			if s.tr != nil {
				tracedWall += d
			} else {
				plainWall += d
				a.plainMs = ms(d)
			}
			switch {
			case err != nil:
				e.rep.fail(a.id, "arrival %d: replay: %v", a.id, err)
			case child != a.child:
				e.rep.fail(a.id, "arrival %d: replayed child %s != server's %s", a.id, child, a.child)
			case marshalHash(got) != want:
				e.rep.fail(a.id, "arrival %d: HTTP values differ from the in-process replay", a.id)
			}
		}
		if a.id%10 == 9 {
			e.checkWithValuer(stacks[0], a, test, want)
		}
		parent = a.child
	}
	if !e.traced {
		return nil
	}
	var service []float64
	for _, a := range arrivals {
		if a.err == nil {
			service = append(service, ms(a.put.dur+a.post.dur)-a.plainMs)
		}
	}
	e.setServerLayers(stacks, service, tracedWall, plainWall)
	return nil
}

// checkWithValuer values an arrival's child from scratch with a fresh
// Valuer; the server's incremental values must match it bit for bit.
func (e *env) checkWithValuer(s *stack, a *arrival, test *dataset.Dataset, want uint64) {
	h, err := s.reg.Get(a.child)
	if err != nil {
		e.rep.fail(a.id, "arrival %d: %v", a.id, err)
		return
	}
	defer h.Release()
	v, err := knnshapley.New(h.Dataset(), knnshapley.WithK(e.cfg.K))
	if err == nil {
		var rep *knnshapley.Report
		if rep, err = v.Exact(context.Background(), test); err == nil && marshalHash(rep.Values) != want {
			err = fmt.Errorf("HTTP values differ from a from-scratch Valuer")
		}
	}
	if err != nil {
		e.rep.fail(a.id, "arrival %d: %v", a.id, err)
	}
}
