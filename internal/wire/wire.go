// Package wire defines the JSON types svserver speaks and svcli consumes —
// one definition, imported by both commands, so the formats cannot drift.
// The /statz counter blocks are the exception: RegistryStats and
// PlannerStats alias the Stats types of the packages that keep the
// counters, which declare each counter's JSON key and Prometheus name once.
//
// Valuation requests are declarative: the envelope carries the session
// fields (algorithm, k, metric, engine knobs, datasets by payload or ref)
// and everything else is the algorithm's own parameters, decoded
// generically against the method registry of the root package
// (knnshapley.Lookup + knnshapley.DecodeParams). Neither command contains
// per-algorithm field mapping; registering a new method in the root
// package makes it servable here unchanged.
package wire

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"knnshapley"
	"knnshapley/internal/planner"
	"knnshapley/internal/registry"
)

// Payload is one inline dataset: feature rows plus either class labels or
// regression targets. Name is optional metadata shown by the dataset
// registry (content addressing ignores it).
type Payload struct {
	Name    string      `json:"name,omitempty"`
	X       [][]float64 `json:"x"`
	Labels  []int       `json:"labels,omitempty"`
	Targets []float64   `json:"targets,omitempty"`
}

// ValueRequest is the body of POST /value and POST /jobs. Each dataset side
// is either inline (Train/Test) or by reference (TrainRef/TestRef, a
// registry ID from POST /datasets) — never both. Inline payloads are
// auto-registered, so the response of the first inline call yields the refs
// for every later one.
//
// The struct fields are the request envelope; the algorithm's own
// parameters live in Params, a typed knnshapley parameter struct
// (TruncatedParams, MCParams, …). On the wire they are inlined at the top
// level of the JSON object — {"algorithm": "truncated", "k": 3,
// "eps": 0.1, ...} — and MarshalJSON/UnmarshalJSON translate between the
// two shapes, resolving Params against the method registry. An unknown
// algorithm, or a parameter the named method does not take, is a decode
// error.
type ValueRequest struct {
	Algorithm string   `json:"algorithm,omitempty"`
	K         int      `json:"k,omitempty"`
	Metric    string   `json:"metric,omitempty"`
	Precision string   `json:"precision,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	BatchSize int      `json:"batchSize,omitempty"`
	Train     *Payload `json:"train,omitempty"`
	Test      *Payload `json:"test,omitempty"`
	TrainRef  string   `json:"trainRef,omitempty"`
	TestRef   string   `json:"testRef,omitempty"`
	// Params carries the algorithm's parameters (inlined on the wire).
	// After a successful decode it is never nil: an absent algorithm
	// defaults to "exact", absent parameters to the method's defaults.
	Params knnshapley.Method `json:"-"`
}

// JobEnvelope is the durable form of one job submission, journaled by the
// write-ahead job journal (internal/journal) and replayed after a restart.
// Request is the wire JSON of a by-reference ValueRequest — datasets by
// registry ID, never inline, so the envelope stays a few hundred bytes and
// replay re-resolves the (directory-scan-recovered) registry by ID.
// Everything else a replayed job needs (its result-cache key, its progress
// total, its response metadata) is rebuilt from Request, so envelopes that
// still carry the cacheKey, totalUnits and meta keys of older writers
// replay unchanged: decoding ignores them.
type JobEnvelope struct {
	// V versions the envelope format; replay rejects versions it does not
	// know rather than guessing.
	V int `json:"v"`
	// Kind selects what Request decodes to on replay: "" (historical
	// envelopes) or "value" for a ValueRequest, "delta" for a DeltaJob.
	Kind string `json:"kind,omitempty"`
	// Request is the by-ref ValueRequest JSON to re-submit.
	Request json.RawMessage `json:"request"`
}

// JobEnvelopeVersion is the version current writers stamp into JobEnvelope.V.
const JobEnvelopeVersion = 1

// Job envelope kinds: what JobEnvelope.Request decodes to on replay.
const (
	JobKindValue = "value" // a valuation request ("" in historical envelopes)
	JobKindDelta = "delta" // a DeltaJob — one dataset delta application
	JobKindIndex = "index" // an IndexRequest — one ANN index build/load
)

// envelopeFields are the top-level JSON keys owned by the request envelope;
// every other key belongs to the method's parameters. Matching is
// case-insensitive, like encoding/json's own field matching.
var envelopeFields = map[string]bool{
	"algorithm": true, "k": true, "metric": true, "precision": true,
	"workers": true, "batchsize": true,
	"train": true, "test": true, "trainref": true, "testref": true,
}

// MarshalJSON inlines Params at the top level of the envelope object and
// fills an empty Algorithm from the params' method name.
func (r ValueRequest) MarshalJSON() ([]byte, error) {
	type plain ValueRequest // drops the methods, keeps the tags
	if r.Algorithm == "" && r.Params != nil {
		r.Algorithm = r.Params.Name()
	}
	env, err := json.Marshal(plain(r))
	if err != nil || r.Params == nil {
		return env, err
	}
	pb, err := json.Marshal(r.Params)
	if err != nil {
		return nil, err
	}
	var merged, params map[string]json.RawMessage
	if err := json.Unmarshal(env, &merged); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(pb, &params); err != nil {
		return nil, fmt.Errorf("parameters for %s are not a JSON object: %w", r.Params.Name(), err)
	}
	for k, v := range params {
		if envelopeFields[strings.ToLower(k)] {
			return nil, fmt.Errorf("parameter %q of %s collides with an envelope field", k, r.Params.Name())
		}
		merged[k] = v
	}
	return json.Marshal(merged)
}

// UnmarshalJSON splits the flat wire object into the envelope and the
// method parameters, resolving the latter against the registry — the single
// generic decode path for every algorithm, current and future.
func (r *ValueRequest) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	env := make(map[string]json.RawMessage, len(raw))
	params := make(map[string]json.RawMessage)
	for k, v := range raw {
		if envelopeFields[strings.ToLower(k)] {
			env[k] = v
		} else {
			params[k] = v
		}
	}
	envBytes, err := json.Marshal(env)
	if err != nil {
		return err
	}
	type plain ValueRequest
	if err := json.Unmarshal(envBytes, (*plain)(r)); err != nil {
		return err
	}
	name := r.Algorithm
	if name == "" {
		name = "exact"
	}
	m, ok := knnshapley.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (registered: %s; see GET /methods)",
			r.Algorithm, strings.Join(knnshapley.MethodNames(), ", "))
	}
	var pb []byte
	if len(params) > 0 {
		if pb, err = json.Marshal(params); err != nil {
			return err
		}
	}
	p, err := knnshapley.DecodeParams(m, pb)
	if err != nil {
		return err
	}
	r.Algorithm = name
	r.Params = p
	return nil
}

// ValueResponse is the body of a successful /value or /jobs/{id}/result
// reply — the wire form of the Valuer API's unified Report. TrainRef and
// TestRef echo the registry IDs of the datasets used (minted on the fly for
// inline payloads), so clients can switch to by-reference submission.
type ValueResponse struct {
	Values       []float64 `json:"values"`
	N            int       `json:"n"`
	Algorithm    string    `json:"algorithm"`
	Permutations int       `json:"permutations,omitempty"`
	Budget       int       `json:"budget,omitempty"`
	UtilityEvals int       `json:"utilityEvals,omitempty"`
	KStar        int       `json:"kStar,omitempty"`
	Analyst      *float64  `json:"analyst,omitempty"`
	DurationMs   int64     `json:"durationMs"`
	Fingerprint  string    `json:"fingerprint,omitempty"`
	Cached       bool      `json:"cached,omitempty"`
	TrainRef     string    `json:"trainRef,omitempty"`
	TestRef      string    `json:"testRef,omitempty"`
	// Plan is the algo=auto planner's audit trail — which method actually ran
	// and every cost estimate behind the choice. Nil for directly requested
	// methods.
	Plan *knnshapley.PlanDecision `json:"plan,omitempty"`
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID         string     `json:"id"`
	Status     string     `json:"status"`
	Done       int        `json:"done"`
	Total      int        `json:"total"`
	CacheHit   bool       `json:"cacheHit,omitempty"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// DatasetInfo is the wire form of one registry entry (GET /datasets,
// GET /datasets/{id}).
type DatasetInfo struct {
	// ID is the content-addressed identifier: the 16-hex-digit fingerprint
	// of the dataset, referenced by ValueRequest.TrainRef/TestRef.
	ID         string    `json:"id"`
	Name       string    `json:"name,omitempty"`
	Rows       int       `json:"rows"`
	Dim        int       `json:"dim"`
	Classes    int       `json:"classes,omitempty"`
	Regression bool      `json:"regression,omitempty"`
	Bytes      int64     `json:"bytes"`
	InMemory   bool      `json:"inMemory"`
	OnDisk     bool      `json:"onDisk"`
	Refs       int       `json:"refs"`
	CreatedAt  time.Time `json:"createdAt"`
	// Parent is the dataset this one was derived from via PUT
	// /datasets/{id}/delta, when the registry has a lineage record for it.
	Parent string `json:"parent,omitempty"`
}

// UploadResponse is the body of POST /datasets: the stored dataset's
// metadata plus whether this upload created it (false = idempotent
// re-upload of content already held).
type UploadResponse struct {
	DatasetInfo
	Created bool `json:"created"`
}

// DeltaRequest is the body of PUT /datasets/{id}/delta: edit the dataset at
// {id} by removing rows and/or appending new ones. Appended rows come inline
// (Append) or by registry reference (AppendRef) — never both; Remove lists
// parent row indices to drop (applied before the append, so indices are in
// the parent's coordinates). The result is stored as an ordinary
// content-addressed dataset whose ID a direct upload of the same content
// would also mint, with the derivation recorded as lineage.
type DeltaRequest struct {
	Append    *Payload `json:"append,omitempty"`
	AppendRef string   `json:"appendRef,omitempty"`
	Remove    []int    `json:"remove,omitempty"`
}

// DeltaResponse is the reply to PUT /datasets/{id}/delta: the child
// dataset's info (its Parent field set to {id}), whether the content was new
// to the registry, and the recorded edit sizes.
type DeltaResponse struct {
	DatasetInfo
	Created  bool `json:"created"`
	Appended int  `json:"appended,omitempty"`
	Removed  int  `json:"removed,omitempty"`
}

// DeltaJob is the journaled form of one delta application (JobEnvelope.Kind
// "delta"): everything by reference, so replay re-resolves the recovered
// registry. AppendRef is empty for a pure removal.
type DeltaJob struct {
	Parent    string `json:"parent"`
	AppendRef string `json:"appendRef,omitempty"`
	Remove    []int  `json:"remove,omitempty"`
}

// IndexRequest is the body of POST /indexes: build (or reload) one ANN
// index over an uploaded dataset, off the query path, as an async journaled
// job. It doubles as the journaled form of the job (JobEnvelope.Kind
// "index") — everything is by reference, so replay re-resolves the
// recovered registry.
type IndexRequest struct {
	// Dataset is the registry ID of the training set to index.
	Dataset string `json:"dataset"`
	// Kind selects the index family: "lsh" or "kd".
	Kind string `json:"kind"`
	// K is the session's neighbor count (0 = the engine default); with Eps it
	// sets K* = max{K, ⌈1/eps⌉}, which shapes the LSH tables.
	K int `json:"k,omitempty"`
	// Eps and Delta are the tolerance the index is tuned for (defaults
	// 0.1/0.1; delta applies to "lsh" only). Seed drives the LSH hash draws.
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
}

// IndexInfo is the wire form of one persisted index (GET /indexes,
// GET /indexes/{id}).
type IndexInfo struct {
	// ID is "<datasetID>.<kind>.<keyhash>" — deterministic in the dataset
	// fingerprint and canonical index parameters.
	ID string `json:"id"`
	// Dataset is the registry ID of the indexed training set; Kind the index
	// family; Key the canonical build-parameter string.
	Dataset string `json:"dataset"`
	Kind    string `json:"kind"`
	Key     string `json:"key"`
	// Bytes is the container file size; Refs the outstanding handles.
	Bytes     int64     `json:"bytes"`
	Refs      int       `json:"refs,omitempty"`
	CreatedAt time.Time `json:"createdAt"`
	LastUsed  time.Time `json:"lastUsed"`
}

// IndexListResponse is the body of GET /indexes.
type IndexListResponse struct {
	Indexes []IndexInfo `json:"indexes"`
}

// IndexJobResult is the result body of a completed index job
// (GET /jobs/{id}/result): the persisted artifact's metadata plus how the
// job obtained it — Built from scratch, Loaded from the store, or neither
// when the serving session already held it live.
type IndexJobResult struct {
	IndexInfo
	Built  bool `json:"built"`
	Loaded bool `json:"loaded"`
}

// RegistryStats and PlannerStats are the "registry" and "planner" blocks of
// GET /statz. They are declared, JSON keys and Prometheus names included,
// by the packages that keep the counters.
type (
	RegistryStats = registry.Stats
	PlannerStats  = planner.Stats
)

// DatasetListResponse is the body of GET /datasets.
type DatasetListResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// MethodsResponse is the body of GET /methods: the machine-readable schema
// of every registered valuation method — name, parameter names, types,
// required flags, defaults and bounds — so clients can discover the server's
// capabilities instead of hard-coding them.
type MethodsResponse struct {
	Methods []knnshapley.MethodSchema `json:"methods"`
}

// ErrorResponse is every error body; Canceled marks a context-terminated
// valuation as opposed to a rejected one.
type ErrorResponse struct {
	Error    string `json:"error"`
	Canceled bool   `json:"canceled,omitempty"`
}

// ShardRequest is the body of POST /shard/jobs: one sub-job of a sharded
// valuation, addressed entirely by registry references (the coordinator
// pushes the shard and test datasets first; content addressing makes the
// push idempotent). The worker computes, for every test row, its sorted
// list of the Limit nearest shard-local training rows — distances, global
// training indices and correctness flags — and serves it back as a binary
// ShardReport (GET /shard/jobs/{id}/result). Status and cancellation reuse
// the ordinary job endpoints (GET/DELETE /jobs/{id}).
type ShardRequest struct {
	// TrainRef and TestRef are registry IDs of the shard's training rows and
	// the test set.
	TrainRef string `json:"trainRef"`
	TestRef  string `json:"testRef"`
	// K, Metric and Precision are the session knobs of the parent valuation;
	// they shape distances and hence the reported neighbor order.
	K         int    `json:"k"`
	Metric    string `json:"metric,omitempty"`
	Precision string `json:"precision,omitempty"`
	// Limit is how many neighbors per test point the shard reports: the
	// shard size for an exact merge, min(K*, shard size) for a truncated
	// one. 0 means the full shard.
	Limit int `json:"limit,omitempty"`
	// GlobalOffset is the global index of the shard's first training row in
	// the unsharded training set; reported indices are global, so the
	// coordinator's merge needs no per-shard translation.
	GlobalOffset int `json:"globalOffset,omitempty"`
	// GlobalN is the unsharded training-set size (echoed in the report as a
	// merge cross-check).
	GlobalN int `json:"globalN"`
	// BatchSize is the shard scan's distance-tile height (0 = default).
	BatchSize int `json:"batchSize,omitempty"`
}

// PeerStatus is one peer's health and traffic as the coordinator sees it
// (GET /cluster/statz); URL labels the peer's samples on GET /metrics.
type PeerStatus struct {
	URL      string `json:"url" prom:"{peer}"`
	Healthy  bool   `json:"healthy" prom:"svserver_cluster_peer_healthy,Peer health as last probed (1 = healthy)."`
	Shards   int64  `json:"shards" prom:"svserver_cluster_peer_shards_total,Shard sub-jobs completed on the peer."`
	Failures int64  `json:"failures" prom:"svserver_cluster_peer_failures_total,Shard sub-job attempts on the peer that errored."`
	Retries  int64  `json:"retries" prom:"svserver_cluster_peer_retries_total,Shard re-submissions after a failure on the peer."`
	LastErr  string `json:"lastError,omitempty"`
}

// ClusterStatz is the body of GET /cluster/statz; its prom-tagged fields
// are also rendered on GET /metrics. Coordinator is false on a worker-only
// process, whose Peers is then empty and whose coordinator counters read 0.
type ClusterStatz struct {
	Coordinator   bool         `json:"coordinator"`
	Peers         []PeerStatus `json:"peers,omitempty"`
	Valuations    int64        `json:"valuations" prom:"svserver_cluster_valuations_total,Valuations completed via scatter-gather."`
	Fallbacks     int64        `json:"fallbacks" prom:"svserver_cluster_fallbacks_total,Valuations degraded to local execution (no healthy peers)."`
	Reassignments int64        `json:"reassignments" prom:"svserver_cluster_reassignments_total,Shards reassigned to a replica after a peer failure."`
	WireBytes     int64        `json:"wireBytes" prom:"svserver_cluster_wire_bytes_total,Shard-report bytes gathered from peers."`
	ShardJobs     int64        `json:"shardJobs" prom:"svserver_shard_jobs_total,Cluster shard sub-jobs accepted by this worker."`
}
