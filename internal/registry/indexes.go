package registry

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"knnshapley/internal/binio"
)

// The index store persists serialized ANN indexes (LSH tables, k-d trees)
// beside their dataset: building an index over 1e5+ points costs orders of
// magnitude more than reloading its bytes, so a Valuer session-cache miss
// should hit disk before it hits the CPU. Each artifact is keyed by the
// dataset's content fingerprint plus the canonical index parameters, wrapped
// in a CRC-verified container (and the index codecs carry their own CRC
// trailers), refcounted like dataset handles, and LRU-reclaimed under a
// disk budget of its own.

// indexExt is the on-disk suffix of one stored index ("KNNShapley index").
const indexExt = ".knnsi"

const (
	containerMagic   = uint64(0x4b4e4958) // "KNIX"
	containerVersion = 1

	// maxKeyLen bounds the canonical-parameter strings stored in container
	// headers — a decode guard, far above anything the key builders emit.
	maxKeyLen = 1 << 10
)

// ErrIndexNotFound reports an index ID the store does not hold.
var ErrIndexNotFound = errors.New("registry: index not found")

// IndexConfig tunes an IndexStore.
type IndexConfig struct {
	// Dir holds one container file per index (required).
	Dir string
	// DiskBudget bounds the bytes of stored indexes (0 = unbounded). When a
	// Put would exceed it, the least-recently-used unpinned indexes are
	// reclaimed; a reclaimed index is simply rebuilt on next use.
	DiskBudget int64
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// IndexInfo is the metadata view of one stored index.
type IndexInfo struct {
	// ID is "<datasetID>.<kind>.<keyhash>" — deterministic in the dataset
	// fingerprint and canonical index parameters.
	ID string
	// Dataset is the content fingerprint of the dataset the index was built
	// over; Kind names the index family ("lsh" or "kd"); Key is the
	// canonical parameter string.
	Dataset, Kind, Key string
	// Bytes is the container file size.
	Bytes int64
	// Refs is the number of outstanding handles.
	Refs int
	// CreatedAt is when the store first persisted the index; LastUsed orders
	// disk-budget reclaim.
	CreatedAt, LastUsed time.Time
}

// IndexStats is a point-in-time view of the store's counters: the "indexes"
// block of svserver's /statz and, under the prom names whose help says what
// each counts, of /metrics. DiskBudget echoes the bound and stays off
// /metrics.
type IndexStats struct {
	Indexes    int   `json:"indexes" prom:"svserver_index_store_indexes,Persisted ANN indexes stored."`
	DiskBytes  int64 `json:"diskBytes" prom:"svserver_index_store_disk_bytes,Bytes of persisted ANN indexes on disk."`
	DiskBudget int64 `json:"diskBudget,omitempty"`
	Saves      int64 `json:"saves" prom:"svserver_index_store_saves_total,ANN indexes persisted."`
	Loads      int64 `json:"loads" prom:"svserver_index_store_loads_total,ANN indexes reloaded instead of rebuilt."`
	Misses     int64 `json:"misses" prom:"svserver_index_store_misses_total,Index lookups that found nothing."`
	Reclaims   int64 `json:"reclaims" prom:"svserver_index_store_reclaims_total,Indexes reclaimed by the disk budget."`
	Deletes    int64 `json:"deletes" prom:"svserver_index_store_deletes_total,Indexes deleted (dataset cascade included)."`
	Corrupt    int64 `json:"corrupt" prom:"svserver_index_store_corrupt_total,Index containers that failed verification and were dropped."`
}

// indexEntry is one stored index; fields are guarded by IndexStore.mu.
type indexEntry struct {
	info    IndexInfo // static metadata; Refs materialized in statLocked
	refs    int
	deleted bool
	onDisk  bool
}

// IndexStore is the concurrency-safe persistent index store. Create one
// with NewIndexStore.
type IndexStore struct {
	cfg IndexConfig

	mu        sync.Mutex
	entries   map[string]*indexEntry
	diskBytes int64

	st IndexStats // the counters; Stats fills in the gauges
}

// IndexID derives the store's deterministic identifier for an index of the
// given kind and canonical parameter key over dataset.
func IndexID(dataset, kind, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%s.%s.%016x", dataset, kind, h.Sum64())
}

// NewIndexStore opens an index store: the directory is created if needed
// and existing *.knnsi containers are indexed by their headers; files that
// fail header verification are removed (they would never load).
func NewIndexStore(cfg IndexConfig) (*IndexStore, error) {
	if cfg.Dir == "" {
		return nil, errors.New("registry: index store needs a directory")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	s := &IndexStore{cfg: cfg, entries: make(map[string]*indexEntry)}
	files, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	now := cfg.Now()
	for _, f := range files {
		name, ok := strings.CutSuffix(f.Name(), indexExt)
		if !ok || f.IsDir() {
			continue
		}
		path := filepath.Join(cfg.Dir, f.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		ds, kind, key, _, err := parseContainer(raw)
		if err != nil || IndexID(ds, kind, key) != name {
			os.Remove(path) // corrupt or renamed: it would never verify on load
			s.st.Corrupt++
			continue
		}
		s.entries[name] = &indexEntry{
			info: IndexInfo{
				ID: name, Dataset: ds, Kind: kind, Key: key,
				Bytes: int64(len(raw)), CreatedAt: now, LastUsed: now,
			},
			onDisk: true,
		}
		s.diskBytes += int64(len(raw))
	}
	return s, nil
}

// encodeContainer frames payload with the verified header.
func encodeContainer(dataset, kind, key string, payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U64(containerMagic)
	bw.U64(containerVersion)
	bw.String(dataset)
	bw.String(kind)
	bw.String(key)
	if err := bw.Finish(); err != nil {
		return nil, err
	}
	return append(buf.Bytes(), payload...), nil
}

// parseContainer verifies the header of one container file and returns its
// identity plus the payload (the index codec's own bytes, which carry a
// CRC trailer of their own).
func parseContainer(raw []byte) (dataset, kind, key string, payload []byte, err error) {
	br := binio.NewReader(bytes.NewReader(raw))
	if m := br.U64(); br.Err() == nil && m != containerMagic {
		return "", "", "", nil, fmt.Errorf("registry: bad index magic %#x", m)
	}
	if v := br.U64(); br.Err() == nil && v != containerVersion {
		return "", "", "", nil, fmt.Errorf("registry: unsupported index container version %d", v)
	}
	dataset = br.String(maxKeyLen)
	kind = br.String(maxKeyLen)
	key = br.String(maxKeyLen)
	if err := br.Verify(); err != nil {
		return "", "", "", nil, fmt.Errorf("registry: index container: %w", err)
	}
	// Header length is fully determined by the decoded field sizes: two u64,
	// three length-prefixed strings, one CRC trailer.
	hdrLen := 16 + (4 + len(dataset)) + (4 + len(kind)) + (4 + len(key)) + 4
	return dataset, kind, key, raw[hdrLen:], nil
}

func (s *IndexStore) path(id string) string {
	return filepath.Join(s.cfg.Dir, id+indexExt)
}

// Put persists one serialized index under (dataset, kind, key), replacing
// any previous content for the same identity, and enforces the disk budget.
func (s *IndexStore) Put(dataset, kind, key string, payload []byte) (IndexInfo, error) {
	raw, err := encodeContainer(dataset, kind, key, payload)
	if err != nil {
		return IndexInfo{}, err
	}
	id := IndexID(dataset, kind, key)
	tmp, err := os.CreateTemp(s.cfg.Dir, id+".tmp*")
	if err != nil {
		return IndexInfo{}, fmt.Errorf("registry: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return IndexInfo{}, fmt.Errorf("registry: write index %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return IndexInfo{}, fmt.Errorf("registry: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		os.Remove(tmp.Name())
		return IndexInfo{}, fmt.Errorf("registry: %w", err)
	}
	now := s.cfg.Now()
	if e, ok := s.entries[id]; ok && !e.deleted {
		// Same identity re-persisted (e.g. two sessions built concurrently):
		// the rename already swapped the bytes; refresh the accounting.
		s.diskBytes += int64(len(raw)) - e.info.Bytes
		e.info.Bytes = int64(len(raw))
		e.info.LastUsed = now
		s.st.Saves++
		return s.statLocked(e), nil
	}
	e := &indexEntry{
		info: IndexInfo{
			ID: id, Dataset: dataset, Kind: kind, Key: key,
			Bytes: int64(len(raw)), CreatedAt: now, LastUsed: now,
		},
		onDisk: true,
	}
	s.entries[id] = e
	s.diskBytes += e.info.Bytes
	s.st.Saves++
	s.reclaimLocked(e)
	return s.statLocked(e), nil
}

// reclaimLocked enforces the disk budget: least-recently-used unpinned
// indexes go first; keep (the index just written) survives even when the
// budget is smaller than one artifact, so a Put always lands.
func (s *IndexStore) reclaimLocked(keep *indexEntry) {
	if s.cfg.DiskBudget <= 0 || s.diskBytes <= s.cfg.DiskBudget {
		return
	}
	cands := make([]*indexEntry, 0, len(s.entries))
	for _, e := range s.entries {
		if e.refs == 0 && e != keep {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].info.LastUsed.Before(cands[j].info.LastUsed) })
	for _, e := range cands {
		if s.diskBytes <= s.cfg.DiskBudget {
			return
		}
		s.removeLocked(e)
		s.st.Reclaims++
	}
}

// removeLocked hides e and deletes its file unless outstanding handles
// defer the removal to the last Release.
func (s *IndexStore) removeLocked(e *indexEntry) {
	e.deleted = true
	delete(s.entries, e.info.ID)
	s.diskBytes -= e.info.Bytes
	if e.refs == 0 {
		s.removeFileLocked(e)
	}
}

// removeFileLocked deletes e's container unless its ID has been
// re-registered since (the new entry owns the path now).
func (s *IndexStore) removeFileLocked(e *indexEntry) {
	if !e.onDisk {
		return
	}
	e.onDisk = false
	if cur, ok := s.entries[e.info.ID]; ok && cur != e {
		return
	}
	os.Remove(s.path(e.info.ID))
}

// IndexHandle is a pinned reference to one stored index's payload. Release
// it when decoding finishes; a pending delete completes at last release.
type IndexHandle struct {
	s       *IndexStore
	e       *indexEntry
	payload []byte
	once    sync.Once
}

// Payload returns the serialized index bytes (the codec's own format,
// CRC-verified by the codec on decode).
func (h *IndexHandle) Payload() []byte { return h.payload }

// Info returns the index's metadata.
func (h *IndexHandle) Info() IndexInfo { return h.e.info }

// Release unpins the handle. It is idempotent.
func (h *IndexHandle) Release() {
	h.once.Do(func() {
		h.s.mu.Lock()
		defer h.s.mu.Unlock()
		h.e.refs--
		if h.e.deleted && h.e.refs == 0 {
			h.s.removeFileLocked(h.e)
		}
	})
}

// Get pins and returns the index stored under (dataset, kind, key), or
// (nil, false) when none is held. The container header is re-verified on
// every load; a file that fails verification is dropped so the caller
// falls back to a fresh build.
func (s *IndexStore) Get(dataset, kind, key string) (*IndexHandle, bool) {
	id := IndexID(dataset, kind, key)
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok || e.deleted {
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	e.refs++ // pin before unlocking so a Delete cannot remove the file mid-read
	e.info.LastUsed = s.cfg.Now()
	path := s.path(id)
	s.mu.Unlock()

	raw, err := os.ReadFile(path)
	var payload []byte
	if err == nil {
		var ds, k, ky string
		ds, k, ky, payload, err = parseContainer(raw)
		if err == nil && (ds != dataset || k != kind || ky != key) {
			err = fmt.Errorf("registry: index %s holds (%s,%s,%s)", id, ds, k, ky)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.st.Corrupt++
		e.refs--
		if !e.deleted {
			s.removeLocked(e)
		} else if e.refs == 0 {
			s.removeFileLocked(e)
		}
		return nil, false
	}
	s.st.Loads++
	return &IndexHandle{s: s, e: e, payload: payload}, true
}

// Has reports whether an index is persisted under (dataset, kind, key)
// without pinning it — the planner's "index already on disk?" probe.
func (s *IndexStore) Has(dataset, kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[IndexID(dataset, kind, key)]
	return ok && !e.deleted
}

func (s *IndexStore) statLocked(e *indexEntry) IndexInfo {
	info := e.info
	info.Refs = e.refs
	return info
}

// Stat returns the metadata of one stored index.
func (s *IndexStore) Stat(id string) (IndexInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok || e.deleted {
		return IndexInfo{}, fmt.Errorf("%w: %s", ErrIndexNotFound, id)
	}
	return s.statLocked(e), nil
}

// List returns the metadata of every stored index, ordered by ID.
func (s *IndexStore) List() []IndexInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexInfo, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, s.statLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes one index by ID; its file goes once the last handle is
// released.
func (s *IndexStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok || e.deleted {
		return fmt.Errorf("%w: %s", ErrIndexNotFound, id)
	}
	s.removeLocked(e)
	s.st.Deletes++
	return nil
}

// DeleteDataset removes every index built over the given dataset and
// returns how many went — the cascade behind DELETE /datasets/{id}, so a
// deleted dataset cannot orphan its index files.
func (s *IndexStore) DeleteDataset(dataset string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		if e.info.Dataset == dataset {
			s.removeLocked(e)
			s.st.Deletes++
			n++
		}
	}
	return n
}

// Stats returns current counters.
func (s *IndexStore) Stats() IndexStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Indexes, st.DiskBytes, st.DiskBudget = len(s.entries), s.diskBytes, s.cfg.DiskBudget
	return st
}
