package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knnshapley/internal/wire"
)

// NewHTTPClient returns the shared pooled client the coordinator (and
// svcli's fan-out) uses: bounded dial and response-header waits so a dead
// peer fails fast, generous idle pooling so polling loops and repeated
// shard pushes reuse connections. No overall request timeout — result
// bodies of large shards legitimately take a while; contexts bound each
// call instead.
func NewHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
			MaxIdleConns:          64,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// peer is the coordinator's view of one worker: its base URL, a bounded
// in-flight semaphore, health state and traffic counters.
type peer struct {
	url    string
	hc     *http.Client
	noGzip bool
	tokens chan struct{} // per-peer in-flight bound

	mu      sync.Mutex
	healthy bool
	lastErr string

	shards   atomic.Int64
	failures atomic.Int64
	retries  atomic.Int64
}

// newPeer starts the peer unhealthy — health is earned by the first probe
// (healthyPeers runs one when no peer is verified yet), so a cluster whose
// peers are all unreachable degrades to ErrNoPeers immediately instead of
// burning a retry budget against dead sockets.
func newPeer(url string, hc *http.Client, noGzip bool) *peer {
	p := &peer{url: strings.TrimRight(url, "/"), hc: hc, noGzip: noGzip,
		tokens: make(chan struct{}, maxInFlight)}
	for i := 0; i < maxInFlight; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// acquire takes an in-flight token, waiting until one frees or ctx dies.
func (p *peer) acquire(ctx context.Context) error {
	select {
	case <-p.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *peer) releaseToken() { p.tokens <- struct{}{} }

// Healthy reports the peer's last known health.
func (p *peer) Healthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// markDown records a connectivity failure; markUp a successful exchange.
func (p *peer) markDown(err error) {
	p.mu.Lock()
	p.healthy = false
	if err != nil {
		p.lastErr = err.Error()
	}
	p.mu.Unlock()
}

func (p *peer) markUp() {
	p.mu.Lock()
	p.healthy = true
	p.mu.Unlock()
}

// status renders the peer for /cluster/statz.
func (p *peer) status() wire.PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return wire.PeerStatus{
		URL: p.url, Healthy: p.healthy, LastErr: p.lastErr,
		Shards: p.shards.Load(), Failures: p.failures.Load(), Retries: p.retries.Load(),
	}
}

// transientError wraps failures worth retrying (connection errors, 5xx,
// backpressure). Permanent rejections (4xx other than 429) abort the shard.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// probe checks GET /healthz and updates the peer's health state.
func (p *peer) probe(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		p.markDown(err)
		return false
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.markDown(err)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.markDown(fmt.Errorf("healthz: HTTP %d", resp.StatusCode))
		return false
	}
	p.markUp()
	return true
}

// hasDataset reports whether the peer's registry already holds id.
func (p *peer) hasDataset(ctx context.Context, id string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/datasets/"+id, nil)
	if err != nil {
		return false, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.markDown(err)
		return false, transient(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return true, nil
	case resp.StatusCode == http.StatusNotFound:
		return false, nil
	case resp.StatusCode >= 500:
		return false, transient(fmt.Errorf("stat dataset %s: HTTP %d", id, resp.StatusCode))
	default:
		return false, fmt.Errorf("stat dataset %s: HTTP %d", id, resp.StatusCode)
	}
}

// pushDataset uploads encoded (the binary dataset format) to the peer.
// Content addressing makes it idempotent: a re-push of held content is a
// cheap 200.
func (p *peer) pushDataset(ctx context.Context, encoded []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/datasets", bytes.NewReader(encoded))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.hc.Do(req)
	if err != nil {
		p.markDown(err)
		return transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return p.httpError(resp, "push dataset")
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// submitShard POSTs one sub-job and returns its job ID.
func (p *peer) submitShard(ctx context.Context, sreq *wire.ShardRequest) (string, error) {
	body, err := json.Marshal(sreq)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/shard/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.hc.Do(req)
	if err != nil {
		p.markDown(err)
		return "", transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", p.httpError(resp, "submit shard")
	}
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", transient(fmt.Errorf("decode shard submit response: %w", err))
	}
	if st.ID == "" {
		return "", transient(fmt.Errorf("shard submit response carries no job id"))
	}
	return st.ID, nil
}

// jobStatus polls GET /jobs/{id}.
func (p *peer) jobStatus(ctx context.Context, id string) (*wire.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.markDown(err)
		return nil, transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, p.httpError(resp, "poll job "+id)
	}
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, transient(fmt.Errorf("decode job status: %w", err))
	}
	return &st, nil
}

// cancelJob fires DELETE /jobs/{id}, best effort.
func (p *peer) cancelJob(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, p.url+"/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := p.hc.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// fetchReport retrieves and decodes the binary shard report. The explicit
// Accept-Encoding header (rather than Go's transparent decompression) keeps
// the counting reader on the raw body, so BytesOnWire reports what actually
// crossed the network — compressed when the worker compressed.
func (p *peer) fetchReport(ctx context.Context, id string) (*ShardReport, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/shard/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, 0, err
	}
	if !p.noGzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.markDown(err)
		return nil, 0, transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, p.httpError(resp, "fetch shard report "+id)
	}
	cr := &countingReader{r: resp.Body}
	var body io.Reader = cr
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(cr)
		if err != nil {
			return nil, cr.n, transient(fmt.Errorf("open gzip report body: %w", err))
		}
		defer zr.Close()
		body = zr
	}
	sr, err := ReadShardReport(body)
	if err != nil {
		return nil, cr.n, transient(err)
	}
	return sr, cr.n, nil
}

// countingReader counts bytes read, feeding the coordinator's wire-traffic
// accounting (svbench's wire_sharded record).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(b []byte) (int, error) {
	m, err := cr.r.Read(b)
	cr.n += int64(m)
	return m, err
}

// httpError converts a non-success response into an error, transient for
// 5xx/429, permanent otherwise, carrying the server's JSON "error" field
// when present.
func (p *peer) httpError(resp *http.Response, op string) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := ""
	var er wire.ErrorResponse
	if json.Unmarshal(body, &er) == nil {
		msg = er.Error
	}
	if msg == "" {
		msg = strings.TrimSpace(string(body))
	}
	err := fmt.Errorf("%s: %s: HTTP %d: %s", p.url, op, resp.StatusCode, msg)
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return transient(err)
	}
	return err
}
