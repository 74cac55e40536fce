package registry

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"

	"knnshapley/internal/binio"
)

// The index store persists serialized ANN indexes (LSH tables, k-d trees)
// beside their dataset: building an index over 1e5+ points costs orders of
// magnitude more than reloading its bytes, so a Valuer session-cache miss
// should hit disk before it hits the CPU. Each artifact is keyed by the
// dataset's content fingerprint plus the canonical index parameters and
// wrapped in a CRC-verified container (and the index codecs carry their own
// CRC trailers).
//
// It is the second kind on the dataset registry's file store (files.go),
// in a directory and under a disk budget of its own. Its own parts are the
// KNIX container, Put replacing an identity's bytes, Has and DeleteDataset.

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
	file           // the file store's record: ID, refs, disk state, LRU touch
	info IndexInfo // static metadata; the dynamic fields materialized in indexInfo
}

// IndexStore is the concurrency-safe persistent index store. Create one
// with NewIndexStore. Stat, List and Delete come from its file store.
type IndexStore struct {
	files[*indexEntry, IndexInfo] // the directory, mu, and every stored index

	st IndexStats // the kind's own counters; Stats fills in the rest
}

// IndexID derives the store's deterministic identifier for an index of the
// given kind and canonical parameter key over dataset.
func IndexID(dataset, kind, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%s.%s.%016x", dataset, kind, h.Sum64())
}

// validIndexID reports whether id has the "<dataset>.<kind>.<keyhash>"
// shape IndexID mints, the only file stems the store will touch on disk.
func validIndexID(id string) bool {
	parts := strings.Split(id, ".")
	n := len(parts)
	return n >= 3 && parts[0] != "" && parts[n-2] != "" && validID(parts[n-1])
}

// NewIndexStore opens an index store: the directory is created if needed
// and existing *.knnsi containers are indexed by their headers alone;
// files that fail header verification are removed (they would never load).
func NewIndexStore(cfg IndexConfig) (*IndexStore, error) {
	if cfg.Dir == "" {
		return nil, errors.New("registry: index store needs a directory")
	}
	s := &IndexStore{}
	s.files = files[*indexEntry, IndexInfo]{
		dir: cfg.Dir, ext: indexExt, budget: cfg.DiskBudget, now: cfg.Now,
		validID: validIndexID, notFound: ErrIndexNotFound, info: indexInfo,
	}
	if err := s.open(checkContainer); err != nil {
		return nil, err
	}
	return s, nil
}

// checkContainer verifies one container's header, which must name the
// identity its file is stored under.
func checkContainer(id string, r io.Reader, _ int64) (*indexEntry, error) {
	ds, kind, key, _, err := readContainerHeader(r)
	if err != nil {
		return nil, err
	}
	if IndexID(ds, kind, key) != id {
		return nil, fmt.Errorf("registry: index %s holds (%s,%s,%s)", id, ds, kind, key)
	}
	return &indexEntry{info: IndexInfo{ID: id, Dataset: ds, Kind: kind, Key: key}}, nil
}

// containerHeader is the verified header that frames one index's payload.
func containerHeader(dataset, kind, key string) ([]byte, error) {
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
	return buf.Bytes(), nil
}

// readContainerHeader verifies the header at the start of r and returns the
// identity it names plus its length in bytes.
func readContainerHeader(r io.Reader) (dataset, kind, key string, n int, err error) {
	br := binio.NewReader(r)
	if m := br.U64(); br.Err() == nil && m != containerMagic {
		return "", "", "", 0, fmt.Errorf("registry: bad index magic %#x", m)
	}
	if v := br.U64(); br.Err() == nil && v != containerVersion {
		return "", "", "", 0, fmt.Errorf("registry: unsupported index container version %d", v)
	}
	dataset = br.String(maxKeyLen)
	kind = br.String(maxKeyLen)
	key = br.String(maxKeyLen)
	if err := br.Verify(); err != nil {
		return "", "", "", 0, fmt.Errorf("registry: index container: %w", err)
	}
	// Header length is fully determined by the decoded field sizes: two u64,
	// three length-prefixed strings, one CRC trailer.
	return dataset, kind, key, 16 + (4 + len(dataset)) + (4 + len(kind)) + (4 + len(key)) + 4, nil
}

// Put persists one serialized index under (dataset, kind, key), replacing
// any previous content for the same identity, and enforces the disk budget.
func (s *IndexStore) Put(dataset, kind, key string, payload []byte) (IndexInfo, error) {
	hdr, err := containerHeader(dataset, kind, key)
	if err != nil {
		return IndexInfo{}, err
	}
	id := IndexID(dataset, kind, key)
	tmp, err := s.writeTemp(id, func(w io.Writer) error {
		_, err := io.Copy(w, io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(payload)))
		return err
	})
	if err != nil {
		return IndexInfo{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Same identity re-persisted (a rebuild, or two sessions that built
	// concurrently): the rename swaps the bytes under the existing entry.
	e, ok := s.entries[id]
	if !ok {
		e = &indexEntry{info: IndexInfo{ID: id, Dataset: dataset, Kind: kind, Key: key}}
		e.id = id
	}
	if err := s.installLocked(e, tmp, int64(len(hdr)+len(payload))); err != nil {
		return IndexInfo{}, err
	}
	s.st.Saves++
	return indexInfo(e), nil
}

// IndexHandle is a pinned reference to one stored index's payload. Release
// it when decoding finishes; a pending delete completes at last release.
type IndexHandle struct {
	s       *IndexStore
	e       *indexEntry
	info    IndexInfo
	payload []byte
	once    sync.Once
}

// Payload returns the serialized index bytes (the codec's own format,
// CRC-verified by the codec on decode).
func (h *IndexHandle) Payload() []byte { return h.payload }

// Info returns the index's metadata as of the Get.
func (h *IndexHandle) Info() IndexInfo { return h.info }

// Release unpins the handle. It is idempotent.
func (h *IndexHandle) Release() {
	h.once.Do(func() { h.s.release(h.e) })
}

// Get pins and returns the index stored under (dataset, kind, key), or
// (nil, false) when none is held. The container header is re-verified on
// every load; a file that fails verification is dropped so the caller
// falls back to a fresh build.
func (s *IndexStore) Get(dataset, kind, key string) (*IndexHandle, bool) {
	id := IndexID(dataset, kind, key)
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.pinLocked(e) // pin before unlocking so a Delete cannot remove the file mid-read
	s.mu.Unlock()

	var payload []byte
	if err := s.load(e, func(r io.Reader, size int64) error {
		raw := make([]byte, size)
		if _, err := io.ReadFull(r, raw); err != nil {
			return err
		}
		ds, k, ky, n, err := readContainerHeader(bytes.NewReader(raw))
		if err == nil && (ds != dataset || k != kind || ky != key) {
			err = fmt.Errorf("registry: index %s holds (%s,%s,%s)", id, ds, k, ky)
		}
		payload = raw[n:]
		return err
	}); err != nil {
		return nil, false
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Loads++
	return &IndexHandle{s: s, e: e, info: indexInfo(e), payload: payload}, true
}

// Has reports whether an index is persisted under (dataset, kind, key)
// without pinning it — the planner's "index already on disk?" probe.
func (s *IndexStore) Has(dataset, kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[IndexID(dataset, kind, key)]
	return ok
}

// indexInfo materializes the dynamic fields of e's IndexInfo; callers hold
// the store's mutex.
func indexInfo(e *indexEntry) IndexInfo {
	info := e.info
	info.Bytes, info.Refs = e.size, e.refs
	info.CreatedAt, info.LastUsed = e.created, e.lastUsed
	return info
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
			s.deletes++
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
	st.Indexes, st.DiskBytes, st.DiskBudget = len(s.entries), s.bytes, s.budget
	st.Deletes, st.Reclaims, st.Corrupt = s.deletes, s.reclaims, s.corrupt
	return st
}
