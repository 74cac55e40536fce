package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"knnshapley"
	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/registry"
	"knnshapley/internal/vec"
	"knnshapley/internal/wire"
)

const (
	// maxInFlight bounds concurrent sub-jobs per peer, matching the job
	// manager's default worker count.
	maxInFlight = 2
	// shardRetries is the per-shard attempt budget beyond one try per owner.
	shardRetries = 3
)

// ErrNoPeers reports that no peer was healthy when a scatter started. The
// serving layer maps it to the degraded single-node fallback: the valuation
// still answers, just without fan-out.
var ErrNoPeers = errors.New("cluster: no healthy peers")

// Config tunes a Coordinator. Zero values select the documented defaults.
type Config struct {
	// Peers are the worker base URLs (e.g. http://10.0.0.2:8080).
	Peers []string
	// Replicas is how many ring owners each shard (and the test set) is
	// pushed to, so a failed primary can be replaced without re-shipping
	// data (default 2, capped at len(Peers)).
	Replicas int
	// Backoff is the base delay between attempts, doubled per retry
	// (default 50ms).
	Backoff time.Duration
	// PollInterval is the sub-job status poll period (default 20ms).
	PollInterval time.Duration
	// HealthInterval is the background peer probe period (default 5s);
	// negative disables background probing (probes then happen only on
	// demand, at scatter start over peers marked down).
	HealthInterval time.Duration
	// DisableReportGzip turns off Accept-Encoding on shard-report fetches,
	// so reports cross the wire uncompressed (the before/after comparison in
	// svbench; also an escape hatch if a proxy mangles encodings).
	DisableReportGzip bool
	// Client overrides the pooled HTTP client (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 20 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = NewHTTPClient()
	}
	return c
}

// Request is one distributable valuation: the exact or truncated
// KNN-Shapley method over unweighted classification, by-reference datasets
// included. Other methods stay single-node — the serving layer routes them
// to the local Valuer.
type Request struct {
	// Train and Test are the full datasets (the coordinator slices shards
	// itself; sub-datasets share feature storage, nothing is copied).
	Train, Test *dataset.Dataset
	// TrainID and TestID are the datasets' registry IDs (16-hex content
	// fingerprints); computed from the datasets when empty.
	TrainID, TestID string
	// Method is "exact" or "truncated"; Eps applies to "truncated" only.
	Method string
	Eps    float64
	// K, Metric, MetricName and Precision are the session knobs; MetricName
	// is the wire spelling shipped to workers ("" = l2).
	K          int
	Metric     vec.Metric
	MetricName string
	Precision  knn.Precision
	// BatchSize is forwarded to the shard computations.
	BatchSize int
}

// Coordinator owns the ring, the peer table and the scatter-gather
// executor. It is safe for concurrent Evaluate calls; per-peer in-flight
// bounds are shared across them.
type Coordinator struct {
	cfg   Config
	ring  *Ring
	peers map[string]*peer
	order []*peer

	valuations    atomic.Int64
	reassignments atomic.Int64
	bytesIn       atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	probeWG  sync.WaitGroup
}

// New builds a Coordinator over cfg.Peers and, unless disabled, starts the
// background health prober. Call Close to stop it.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Peers),
		peers:  make(map[string]*peer, len(cfg.Peers)),
		stopCh: make(chan struct{}),
	}
	for _, u := range cfg.Peers {
		p := newPeer(u, cfg.Client, cfg.DisableReportGzip)
		c.peers[p.url] = p
		c.order = append(c.order, p)
	}
	if cfg.HealthInterval > 0 && len(c.order) > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c
}

// Close stops the background prober. In-flight Evaluates are unaffected
// (their contexts govern them).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.probeWG.Wait()
}

// probeLoop refreshes peer health every HealthInterval.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.ProbeAll(context.Background())
		}
	}
}

// ProbeAll probes every peer once, in parallel, and returns how many are
// healthy afterward.
func (c *Coordinator) ProbeAll(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, p := range c.order {
		wg.Add(1)
		go func(p *peer) { defer wg.Done(); p.probe(ctx) }(p)
	}
	wg.Wait()
	n := 0
	for _, p := range c.order {
		if p.Healthy() {
			n++
		}
	}
	return n
}

// healthyPeers returns the peers currently marked healthy, probing the
// marked-down ones once if that would otherwise leave the set empty.
func (c *Coordinator) healthyPeers(ctx context.Context) []*peer {
	collect := func() []*peer {
		var hs []*peer
		for _, p := range c.order {
			if p.Healthy() {
				hs = append(hs, p)
			}
		}
		return hs
	}
	hs := collect()
	if len(hs) == 0 && len(c.order) > 0 {
		c.ProbeAll(ctx)
		hs = collect()
	}
	return hs
}

// Statz snapshots the coordinator's counters and peer table.
func (c *Coordinator) Statz() wire.ClusterStatz {
	st := wire.ClusterStatz{
		Coordinator:   true,
		Valuations:    c.valuations.Load(),
		Reassignments: c.reassignments.Load(),
		WireBytes:     c.bytesIn.Load(),
	}
	for _, p := range c.order {
		st.Peers = append(st.Peers, p.status())
	}
	return st
}

// BytesOnWire returns the cumulative shard-report bytes fetched — the
// gather half of the coordinator's traffic, which dominates once datasets
// are resident on the peers (pushes are idempotent no-ops from the second
// valuation on).
func (c *Coordinator) BytesOnWire() int64 { return c.bytesIn.Load() }

// shard is one planned sub-job: its datasets, their registry IDs, the wire
// request, and the owner preference list from the ring.
type shard struct {
	index             int
	train, test       *dataset.Dataset
	trainID, testID   string
	trainBin, testBin []byte
	req               wire.ShardRequest
	owners            []*peer
	done              atomic.Int64 // test points processed (progress)
}

// Evaluate runs one sharded valuation: plan, place, push, scatter, gather,
// merge. The returned Report is bit-identical to the single-node
// Valuer.Evaluate for the same request — the equivalence the cluster tests
// pin. ErrNoPeers is returned (before any work) when no peer is healthy, so
// callers can fall back to local execution; a mid-run peer loss is retried
// on ring replicas and only surfaces as an error once every owner of some
// shard is exhausted.
func (c *Coordinator) Evaluate(ctx context.Context, req Request) (*knnshapley.Report, error) {
	start := time.Now()
	if err := validateRequest(&req); err != nil {
		return nil, err
	}
	peers := c.healthyPeers(ctx)
	if len(peers) == 0 {
		return nil, ErrNoPeers
	}

	shards, err := c.plan(&req, len(peers))
	if err != nil {
		return nil, err
	}

	// Scatter: every shard runs concurrently; the per-peer token buckets
	// bound actual in-flight sub-jobs. The first hard failure cancels the
	// whole fan-out (and, through the poll loops, the remote sub-jobs).
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	progress := knnshapley.ProgressFrom(ctx)
	reports := make([]*ShardReport, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			rep, err := c.runShard(runCtx, sh, &req, func() { c.reportProgress(progress, shards, &req) })
			reports[i], errs[i] = rep, err
			if err != nil {
				cancel()
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
	}

	values, err := c.merge(&req, reports)
	if err != nil {
		return nil, err
	}
	c.valuations.Add(1)

	rep := &knnshapley.Report{
		Values:      values,
		Method:      req.Method,
		Fingerprint: trainFingerprint(&req),
		TestPoints:  req.Test.N(),
		Duration:    time.Since(start),
	}
	if req.Method == "truncated" {
		rep.KStar = core.KStar(req.K, req.Eps)
	}
	return rep, nil
}

// validateRequest normalizes and rejects what the merge layer cannot
// reproduce bit-identically.
func validateRequest(req *Request) error {
	if req.Train == nil || req.Test == nil {
		return errors.New("cluster: nil dataset")
	}
	if req.Train.IsRegression() || req.Test.IsRegression() {
		return errors.New("cluster: sharded valuation applies to unweighted classification")
	}
	if req.Train.N() == 0 || req.Test.N() == 0 {
		return errors.New("cluster: empty dataset")
	}
	if req.K <= 0 {
		return fmt.Errorf("cluster: k = %d, want >= 1", req.K)
	}
	switch req.Method {
	case "exact":
	case "truncated":
		if req.Eps <= 0 {
			return fmt.Errorf("cluster: eps = %g, want > 0", req.Eps)
		}
	default:
		return fmt.Errorf("cluster: method %q is not distributable (exact, truncated)", req.Method)
	}
	if req.TrainID == "" {
		req.TrainID = registry.ID(req.Train.Fingerprint())
	}
	if req.TestID == "" {
		req.TestID = registry.ID(req.Test.Fingerprint())
	}
	return nil
}

// trainFingerprint recovers the training fingerprint from the registry ID
// (hex of the uint64), falling back to rehashing.
func trainFingerprint(req *Request) uint64 {
	if v, err := strconv.ParseUint(req.TrainID, 16, 64); err == nil {
		return v
	}
	return req.Train.Fingerprint()
}

// reportLimit is how many neighbors per test point a shard must report for
// the merge to be exact: everything it has for the exact method, min(K*,
// shard size) for the truncated one (no training point past the global K*
// prefix receives a value, and each global top-K* point is inside its own
// shard's top-K*).
func reportLimit(req *Request, shardN int) int {
	if req.Method == "truncated" {
		return min(core.KStar(req.K, req.Eps), shardN)
	}
	return shardN
}

// plan slices the training set into one [start,end) row range per
// available peer (shared storage, global offsets riding along) and assigns
// ring owners to each; every shard ranks the whole test set.
func (c *Coordinator) plan(req *Request, nPeers int) ([]*shard, error) {
	n := req.Train.N()
	parts := min(nPeers, n)
	shards := make([]*shard, parts)
	base, rem := n/parts, n%parts
	start := 0
	for i := range shards {
		rows := base
		if i < rem {
			rows++
		}
		end := start + rows
		sh := &shard{index: i, train: sliceRows(req.Train, start, end), test: req.Test, testID: req.TestID}
		sh.trainID = registry.ID(sh.train.Fingerprint())
		sh.req = wire.ShardRequest{
			TrainRef:     sh.trainID,
			TestRef:      sh.testID,
			K:            req.K,
			Metric:       req.MetricName,
			Precision:    req.Precision.String(),
			Limit:        reportLimit(req, rows),
			GlobalOffset: start,
			GlobalN:      n,
			BatchSize:    req.BatchSize,
		}

		// Placement: the shard's content fingerprint keys the ring, so the
		// same shard lands on the same peers valuation after valuation —
		// which is what keeps their registries warm. Unhealthy owners are
		// skipped at dispatch, not here: health is a moment-in-time fact,
		// ownership a stable one.
		for _, u := range c.ring.OwnersN(sh.trainID, c.cfg.Replicas) {
			sh.owners = append(sh.owners, c.peers[u])
		}
		// Every ring member beyond the replica set is a last-resort owner;
		// appending them keeps "retry or clean failure" from depending on
		// which peers happen to be replicas.
		seen := make(map[*peer]bool, len(sh.owners))
		for _, p := range sh.owners {
			seen[p] = true
		}
		for _, p := range c.order {
			if !seen[p] {
				sh.owners = append(sh.owners, p)
			}
		}
		shards[i] = sh
		start = end
	}
	return shards, nil
}

// sliceRows returns rows [start,end) as a dataset sharing feature storage
// with d. A contiguous d stays contiguous, so shard encoding and worker
// scans keep their fast paths.
func sliceRows(d *dataset.Dataset, start, end int) *dataset.Dataset {
	sub := &dataset.Dataset{
		Name:    fmt.Sprintf("%s[%d:%d]", d.Name, start, end),
		Classes: d.Classes,
		X:       d.X[start:end],
	}
	if len(d.Labels) > 0 {
		sub.Labels = d.Labels[start:end]
	}
	if len(d.Targets) > 0 {
		sub.Targets = d.Targets[start:end]
	}
	return sub
}

// encodeOnce lazily encodes a shard-side dataset for pushing.
func encodeOnce(buf *[]byte, d *dataset.Dataset) ([]byte, error) {
	if *buf != nil {
		return *buf, nil
	}
	var b bytes.Buffer
	if err := dataset.WriteBinary(&b, d); err != nil {
		return nil, err
	}
	*buf = b.Bytes()
	return *buf, nil
}

// runShard executes one shard to completion: pick an owner, ensure its
// datasets, submit, poll, fetch — with exponential backoff between
// transient failures and reassignment to the next owner when a peer goes
// down. onProgress fires after each poll that advanced the shard.
func (c *Coordinator) runShard(ctx context.Context, sh *shard, req *Request, onProgress func()) (*ShardReport, error) {
	var lastErr error
	// One reused timer across the backoff iterations: time.After would leak
	// a timer per attempt until it fires, which adds up under many in-flight
	// shards with long backoffs. Reset is safe because the loop only comes
	// back around after the timer fired.
	var retry *time.Timer
	defer func() {
		if retry != nil {
			retry.Stop()
		}
	}()
	owner := 0
	for attempt := 0; attempt < shardRetries+len(sh.owners); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Prefer the first healthy owner at or after the cursor; if every
		// owner is marked down, take the cursor's anyway — markDown is a
		// heuristic and the probe loop may simply not have caught up.
		p := sh.owners[owner%len(sh.owners)]
		for off := 0; off < len(sh.owners); off++ {
			cand := sh.owners[(owner+off)%len(sh.owners)]
			if cand.Healthy() {
				p = cand
				owner += off
				break
			}
		}
		rep, err := c.tryShardOn(ctx, p, sh, onProgress)
		if err == nil {
			p.shards.Add(1)
			return rep, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p.failures.Add(1)
		if !isTransient(err) {
			return nil, err
		}
		p.retries.Add(1)
		if !p.Healthy() {
			// The peer died under us: move to the next owner (its replica
			// already holds the shard when the push phase reached it).
			owner++
			c.reassignments.Add(1)
		}
		backoff := c.cfg.Backoff << uint(min(attempt, 6))
		if retry == nil {
			retry = time.NewTimer(backoff)
		} else {
			retry.Reset(backoff)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-retry.C:
		}
	}
	return nil, fmt.Errorf("cluster: shard %d failed on every owner: %w", sh.index, lastErr)
}

// tryShardOn performs one full attempt on peer p.
func (c *Coordinator) tryShardOn(ctx context.Context, p *peer, sh *shard, onProgress func()) (*ShardReport, error) {
	if err := p.acquire(ctx); err != nil {
		return nil, err
	}
	defer p.releaseToken()

	// Ensure both datasets, cheapest check first. Content addressing makes
	// the existence probe sufficient: equal ID ⇒ equal bytes.
	for _, side := range []struct {
		id  string
		d   *dataset.Dataset
		buf *[]byte
	}{{sh.trainID, sh.train, &sh.trainBin}, {sh.testID, sh.test, &sh.testBin}} {
		ok, err := p.hasDataset(ctx, side.id)
		if err != nil {
			return nil, err
		}
		if !ok {
			enc, err := encodeOnce(side.buf, side.d)
			if err != nil {
				return nil, err
			}
			if err := p.pushDataset(ctx, enc); err != nil {
				return nil, err
			}
		}
	}

	jobID, err := p.submitShard(ctx, &sh.req)
	if err != nil {
		return nil, err
	}
	// One reused poll timer for the whole loop (time.After would leak one
	// timer per poll until it fires); every Reset happens after the previous
	// tick was consumed, so no drain dance is needed.
	poll := time.NewTimer(c.cfg.PollInterval)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			// Cancellation fan-out: stop the remote sub-job on a fresh,
			// short-lived context (ours is already dead).
			cctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			p.cancelJob(cctx, jobID)
			cancel()
			return nil, ctx.Err()
		case <-poll.C:
			poll.Reset(c.cfg.PollInterval)
		}
		st, err := p.jobStatus(ctx, jobID)
		if err != nil {
			return nil, err
		}
		if int64(st.Done) != sh.done.Load() {
			sh.done.Store(int64(st.Done))
			onProgress()
		}
		switch st.Status {
		case "done":
			sr, n, err := p.fetchReport(ctx, jobID)
			if err != nil {
				return nil, err
			}
			c.bytesIn.Add(n)
			sh.done.Store(int64(sh.test.N()))
			onProgress()
			return sr, nil
		case "failed":
			return nil, fmt.Errorf("cluster: %s: shard job %s failed: %s", p.url, jobID, st.Error)
		case "canceled":
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, transient(fmt.Errorf("cluster: %s: shard job %s canceled remotely", p.url, jobID))
		}
	}
}

// reportProgress aggregates per-shard progress into one done/total pair:
// every sub-job walks the whole test set, so the slowest shard is the
// honest measure.
func (c *Coordinator) reportProgress(fn knnshapley.Progress, shards []*shard, req *Request) {
	if fn == nil {
		return
	}
	total := req.Test.N()
	done := int64(total)
	for _, sh := range shards {
		done = min(done, sh.done.Load())
	}
	fn(int(done), total)
}

// merge k-way-merges the shard-local packed neighbor lists of every test
// point into the global α ordering and adds its values into the sum with
// core.AddValues, test point by test point in test order, then averages —
// the single-node engine's kernel and ordered reduce, hence bit-identical
// values.
func (c *Coordinator) merge(req *Request, reports []*ShardReport) ([]float64, error) {
	n := req.Train.N()
	ntest := req.Test.N()
	for _, sr := range reports {
		if sr == nil {
			return nil, errors.New("cluster: missing shard report")
		}
		if sr.GlobalN != n {
			return nil, fmt.Errorf("cluster: shard report for n=%d, want %d", sr.GlobalN, n)
		}
		if len(sr.Idx) != ntest || len(sr.Dist) != ntest {
			return nil, fmt.Errorf("cluster: shard report covers %d test points, want %d", len(sr.Idx), ntest)
		}
	}
	kStar := n
	if req.Method == "truncated" {
		kStar = core.KStar(req.K, req.Eps)
	}

	acc := make([]float64, n)
	var merged []uint32
	heads := make([]int, len(reports))

	for t := 0; t < ntest; t++ {
		total := 0
		for ri, sr := range reports {
			heads[ri] = 0
			total += len(sr.Idx[t])
		}
		if total == 0 {
			return nil, fmt.Errorf("cluster: no shard reported neighbors of test point %d", t)
		}
		if req.Method == "exact" && total != n {
			return nil, fmt.Errorf("cluster: exact merge of test point %d has %d entries, want %d", t, total, n)
		}
		// Only the first K* merged entries carry values.
		total = min(total, kStar)
		if cap(merged) < total {
			merged = make([]uint32, total)
		}
		merged = merged[:total]

		// Linear min-scan k-way merge by (DistKeyBits(dist), global index):
		// the comparison key of vec.ArgsortDistInto, so the merged sequence
		// equals the single-node α ordering. The scan is O(P) per output
		// entry with P = shard count — small enough that a heap would cost
		// more than it saves.
		for out := range merged {
			best := -1
			var bestKey uint64
			var bestIdx uint32
			for ri, sr := range reports {
				h := heads[ri]
				if h >= len(sr.Idx[t]) {
					continue
				}
				key := vec.DistKeyBits(sr.Dist[t][h])
				idx := sr.Idx[t][h] &^ correctBit
				if best == -1 || key < bestKey || (key == bestKey && idx < bestIdx) {
					best, bestKey, bestIdx = ri, key, idx
				}
			}
			merged[out] = reports[best].Idx[t][heads[best]]
			heads[best]++
		}
		core.AddValues(merged, n, req.K, kStar, acc)
	}
	inv := 1 / float64(ntest)
	for i := range acc {
		acc[i] *= inv
	}
	return acc, nil
}
