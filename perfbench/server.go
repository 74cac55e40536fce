package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"knnshapley/internal/cluster"
	"knnshapley/internal/dataset"
	"knnshapley/internal/wire"
)

// svProc is one svserver process built from the tree under test, started
// with default flags on a loopback port and a fresh data dir.
type svProc struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
	client  *http.Client
}

// startServer boots svserver and waits until it listens.
func startServer(e *env, dataDir string, conns int) (*svProc, error) {
	cmd := exec.Command(e.svserver, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start svserver: %w", err)
	}
	p := &svProc{cmd: cmd, drained: make(chan struct{}), client: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns + 1, DisableCompression: true},
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "svserver listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("svserver exited before listening")
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("svserver did not start listening within 30s")
	}
}

func (p *svProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// peakRSS is the server's peak resident set so far, in MB.
func (p *svProc) peakRSS() (float64, error) { return peakRSSMB(p.pid()) }

// stop drains the server with SIGTERM (SIGKILL after 20s) and waits for it
// to exit.
func (p *svProc) stop() {
	p.client.CloseIdleConnections()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	_ = p.cmd.Wait()
}

func (p *svProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.drained
	_ = p.cmd.Wait()
}

// call is one HTTP exchange as the client saw it.
type call struct {
	status int
	body   []byte
	dur    time.Duration
}

// do sends one request and reads the whole response.
func (p *svProc) do(method, path, contentType string, body []byte) (call, error) {
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return call{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		return call{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c := call{status: resp.StatusCode, body: b, dur: time.Since(start)}
	if err != nil {
		return c, err
	}
	if c.status/100 != 2 {
		return c, fmt.Errorf("%s %s: HTTP %d: %s", method, path, c.status, bytes.TrimSpace(b))
	}
	return c, nil
}

// upload stores d through the binary POST /datasets and returns its ID.
func (p *svProc) upload(d *dataset.Dataset) (string, call, error) {
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, d); err != nil {
		return "", call{}, err
	}
	c, err := p.do("POST", "/datasets", "application/octet-stream", buf.Bytes())
	if err != nil {
		return "", c, err
	}
	var up wire.UploadResponse
	if err := json.Unmarshal(c.body, &up); err != nil {
		return "", c, fmt.Errorf("decode upload response: %w", err)
	}
	return up.ID, c, nil
}

// valueReply is the part of a /value response the benchmark checks: the
// values stay raw JSON and are compared by hash.
type valueReply struct {
	Values json.RawMessage `json:"values"`
	Plan   *struct {
		Method string `json:"method"`
	} `json:"plan"`
}

// value sends one POST /value body.
func (p *svProc) value(body []byte) (valueReply, call, error) {
	var r valueReply
	c, err := p.do("POST", "/value", "application/json", body)
	if err == nil {
		err = json.Unmarshal(c.body, &r)
	}
	return r, c, err
}

// statz is the part of GET /statz the per-layer counts come from.
type statz struct {
	CacheHits    int64                    `json:"cacheHits"`
	Runs         int64                    `json:"runs"`
	ValuerBuilds int64                    `json:"valuerBuilds"`
	Registry     wire.RegistryStats       `json:"registry"`
	Planner      wire.PlannerStats        `json:"planner"`
	Incremental  cluster.IncrementalStats `json:"incremental"`
	RankCache    cluster.RankCacheStats   `json:"rankCache"`
}

func (p *svProc) statz() (statz, error) {
	var s statz
	c, err := p.do("GET", "/statz", "", nil)
	if err == nil {
		err = json.Unmarshal(c.body, &s)
	}
	return s, err
}

// setStatzCounts reports the server's counter deltas across the timed
// phase: exact totals, each ratio with its base.
func (e *env) setStatzCounts(a, b statz) {
	r := e.rep
	scratch, patches := b.Incremental.FromScratch-a.Incremental.FromScratch, b.Incremental.Patches-a.Incremental.Patches
	r.set("cluster.from_scratch", float64(scratch), "/statz delta over the timed phase")
	r.set("cluster.patches", float64(patches), "/statz delta over the timed phase")
	r.set("cluster.patch_ratio", ratio(patches, patches+scratch), fmt.Sprintf("patches / (patches + from_scratch), base %d", patches+scratch))
	hits, misses := b.RankCache.Hits-a.RankCache.Hits, b.RankCache.Misses-a.RankCache.Misses
	r.set("cluster.rankcache_hit_ratio", ratio(hits, hits+misses), fmt.Sprintf("hits / lookups, base %d", hits+misses))
	r.set("cluster.rankcache_evictions", float64(b.RankCache.Evictions-a.RankCache.Evictions), "/statz delta")
	r.set("registry.puts", float64(b.Registry.Puts-a.Registry.Puts), "/statz delta")
	r.set("registry.deltas", float64(b.Registry.Deltas-a.Registry.Deltas), "/statz delta")
	r.set("registry.disk_bytes_growth", float64(b.Registry.DiskBytes-a.Registry.DiskBytes), "/statz delta of disk bytes")
	r.set("registry.mem_evictions", float64(b.Registry.Evictions-a.Registry.Evictions), "/statz delta")
	r.set("jobs.valuer_builds", float64(b.ValuerBuilds-a.ValuerBuilds), "/statz delta")
	ch, runs := b.CacheHits-a.CacheHits, b.Runs-a.Runs
	r.set("jobs.cache_hit_ratio", ratio(ch, ch+runs), fmt.Sprintf("cache hits / (hits + runs), base %d", ch+runs))
	for _, m := range []string{"exact", "truncated", "montecarlo", "lsh", "kd"} {
		r.set("planner.picks."+m, float64(b.Planner.Picks[m]-a.Planner.Picks[m]), "/statz delta")
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// valuesHash hashes the JSON encoding of a value vector; equal hashes of
// the server's raw "values" and an in-process json.Marshal mean the two are
// bit-identical (the float formatting is shortest round-trip).
func valuesHash(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

func marshalHash(values []float64) uint64 {
	b, err := json.Marshal(values)
	if err != nil {
		return 0
	}
	return valuesHash(b)
}

// payloadOf renders a dataset as an inline wire payload.
func payloadOf(d *dataset.Dataset) *wire.Payload {
	return &wire.Payload{X: d.X, Labels: d.Labels}
}
