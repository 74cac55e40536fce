// Package registry is the content-addressed dataset store behind the
// upload-once/value-many serving path: datasets become first-class
// server-side objects identified by their content fingerprint, uploaded
// once and referenced by ID in every subsequent valuation request instead
// of re-shipped as JSON floats.
//
// The store is two-tiered. The in-memory tier holds decoded *dataset.Dataset
// payloads under a byte-budget LRU; the disk tier holds every dataset in the
// compact binary format of dataset.WriteBinary (one <id>.knnsb file per
// dataset), so an evicted dataset is reloaded lazily on the next Get and a
// restarted process re-indexes its directory on New. Uploads are idempotent:
// Put of content already stored is a cheap hit that re-pins the payload.
//
// The disk tier and the IndexStore (indexes.go) are two kinds on one file
// store (files.go). A dataset file that fails to decode or no longer
// hashes to its ID fails one Get and is dropped with its file; the ID then
// reads ErrNotFound until the content is uploaded again.
//
// Get returns a refcounted *Handle. A held handle keeps the registry's
// deletion machinery honest: Delete hides the dataset immediately (no new
// Get or List can see it) but the backing file is removed only when the last
// handle is released, so a running valuation job can never have its data
// yanked out from under it. The decoded payload itself is garbage-collected
// Go memory — eviction from the memory tier never invalidates a handle.
//
// All methods are safe for concurrent use.
package registry

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"knnshapley/internal/dataset"
)

// fileExt is the on-disk suffix of one stored dataset ("KNNShapley binary").
const fileExt = ".knnsb"

// ErrNotFound reports an ID the registry does not hold (never stored,
// or deleted).
var ErrNotFound = errors.New("registry: dataset not found")

// Config tunes a Registry. Zero values select the documented defaults.
type Config struct {
	// Dir is the disk tier: one binary file per dataset, re-indexed on New.
	// Empty disables persistence — datasets then live in memory only and are
	// exempt from eviction (there would be nowhere to reload them from).
	Dir string
	// MemBudget bounds the bytes of decoded dataset payloads kept resident
	// (default 256 MiB). The budget is soft by one dataset: a single payload
	// larger than the budget is still admitted, evicting everything else.
	MemBudget int64
	// DiskBudget bounds the bytes of the disk tier (0 = unbounded). When a
	// Put would exceed it, the least-recently-used unpinned datasets are
	// reclaimed — removed entirely, files included — so inline-payload
	// auto-registration cannot grow the directory without bound. A
	// reclaimed ID behaves like a deleted one (Get returns ErrNotFound);
	// re-uploading the content is idempotent and restores it.
	DiskBudget int64
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Info is the metadata view of one stored dataset.
type Info struct {
	// ID is the 16-hex-digit content fingerprint (Dataset.Fingerprint).
	ID string
	// Name is the dataset's self-reported name, metadata only — two uploads
	// with different names but equal content share one entry (first name
	// wins).
	Name string
	// Rows, Dim, Classes and Regression describe the shape.
	Rows, Dim, Classes int
	Regression         bool
	// Bytes is the encoded size of the dataset (header included) — the unit
	// both tiers account in.
	Bytes int64
	// InMemory and OnDisk report which tiers currently hold the payload.
	InMemory, OnDisk bool
	// Refs is the number of outstanding handles.
	Refs int
	// CreatedAt is when this registry first stored the content (the index
	// time, for entries recovered from disk on New).
	CreatedAt time.Time
}

// Stats is a point-in-time view of the registry's counters: the "registry"
// block of svserver's /statz and, under the prom names whose help says what
// each counts, of /metrics. MemBudget and DiskBudget echo Config
// (DiskBudget 0 = unbounded) and stay off /metrics.
type Stats struct {
	Datasets   int   `json:"datasets" prom:"svserver_registry_datasets,Datasets stored."`
	Resident   int   `json:"resident" prom:"svserver_registry_resident,Datasets decoded in memory."`
	MemBytes   int64 `json:"memBytes" prom:"svserver_registry_mem_bytes,Bytes of decoded datasets resident."`
	DiskBytes  int64 `json:"diskBytes" prom:"svserver_registry_disk_bytes,Bytes of datasets on disk."`
	MemBudget  int64 `json:"memBudget"`
	DiskBudget int64 `json:"diskBudget,omitempty"`
	Hits       int64 `json:"hits" prom:"svserver_registry_hits_total,Registry lookups served from memory."`
	Misses     int64 `json:"misses" prom:"svserver_registry_misses_total,Registry lookups that missed memory."`
	Loads      int64 `json:"loads" prom:"svserver_registry_loads_total,Datasets reloaded from disk."`
	Evictions  int64 `json:"evictions" prom:"svserver_registry_evictions_total,Datasets evicted from memory."`
	Puts       int64 `json:"puts" prom:"svserver_registry_puts_total,Dataset uploads stored."`
	Reuploads  int64 `json:"reuploads" prom:"svserver_registry_reuploads_total,Idempotent re-uploads."`
	Deletes    int64 `json:"deletes" prom:"svserver_registry_deletes_total,Dataset deletions."`
	Reclaims   int64 `json:"reclaims" prom:"svserver_registry_reclaims_total,Disk-budget reclaims."`
	Deltas     int64 `json:"deltas" prom:"svserver_registry_deltas_total,Versioned datasets minted by delta application."`
	Corrupt    int64 `json:"corrupt" prom:"svserver_registry_corrupt_total,Dataset files that failed verification and were dropped."`
}

// entry is one stored dataset. Fields are guarded by Registry.mu except
// loadMu, which serializes the disk reload of exactly this entry while the
// registry lock stays free for everyone else.
type entry struct {
	file      // the file store's record: ID, refs, disk state, LRU touch
	info Info // static metadata; the dynamic fields materialized in infoLocked

	data *dataset.Dataset // resident payload, nil when evicted
	elem *list.Element    // position in the LRU while resident

	loadMu sync.Mutex
}

// Registry is the concurrency-safe two-tier store. Create one with New.
// Stat, List and Delete come from its file store.
type Registry struct {
	files[*entry, Info] // the disk tier, mu, and every stored dataset

	cfg      Config
	resident *list.List // front = most recently used *entry
	memBytes int64
	lineage  map[string]Lineage // child ID → derivation, for versioned datasets

	st Stats // the kind's own counters; Stats fills in the rest
}

// New opens a registry. With a disk tier configured the directory is created
// if needed and existing *.knnsb files are indexed by their headers
// (payloads stay on disk until first Get); a file whose header does not
// parse or disagrees with its size is removed and counted as corrupt.
func New(cfg Config) (*Registry, error) {
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 256 << 20
	}
	r := &Registry{cfg: cfg, resident: list.New(), lineage: make(map[string]Lineage)}
	r.files = files[*entry, Info]{
		dir: cfg.Dir, ext: fileExt, budget: cfg.DiskBudget, now: cfg.Now, validID: validID,
		notFound: ErrNotFound, info: r.infoLocked, drop: r.dropResidentLocked,
	}
	if err := r.open(checkHeader); err != nil {
		return nil, err
	}
	return r, nil
}

// validID reports whether id is a 16-hex-digit fingerprint — the only IDs
// the registry mints, and the only file stems it will touch on disk.
func validID(id string) bool {
	return len(id) == 16 && strings.Trim(id, "0123456789abcdef") == ""
}

// checkHeader reads just the binary header of one stored dataset, which
// must account for the file's size exactly.
func checkHeader(id string, r io.Reader, size int64) (*entry, error) {
	h, err := dataset.ReadBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	if h.EncodedBytes() != size {
		return nil, fmt.Errorf("registry: %s holds %d bytes, its header %d", id, size, h.EncodedBytes())
	}
	return &entry{info: Info{
		ID: id, Rows: h.N, Dim: h.Dim, Classes: h.Classes, Regression: h.Regression, Bytes: size,
	}}, nil
}

// ID formats a dataset fingerprint in the registry's 16-hex form.
func ID(fingerprint uint64) string { return fmt.Sprintf("%016x", fingerprint) }

// Handle is a pinned reference to one stored dataset. Release it when the
// work holding it finishes; the dataset pointer stays valid afterwards (it
// is ordinary garbage-collected memory), but the registry may then complete
// a pending Delete.
type Handle struct {
	r    *Registry
	e    *entry
	d    *dataset.Dataset
	once sync.Once
}

// ID returns the dataset's content-addressed identifier.
func (h *Handle) ID() string { return h.e.id }

// Dataset returns the decoded payload. Treat it as immutable — it is shared
// with every other holder and with the memory tier.
func (h *Handle) Dataset() *dataset.Dataset { return h.d }

// Release unpins the handle. It is idempotent.
func (h *Handle) Release() {
	h.once.Do(func() { h.r.release(h.e) })
}

// Put stores d under its content fingerprint and returns a pinned handle to
// it plus whether the content was new. Re-uploading stored content is an
// idempotent hit (any already-persisted bytes are trusted; the provided copy
// re-populates the memory tier if the payload was evicted). A dataset that
// fails Validate or has a NaN or ±Inf feature (dataset.ErrNonFinite) is
// refused. The registry takes ownership of d — callers must not mutate it
// afterwards.
func (r *Registry) Put(d *dataset.Dataset) (*Handle, bool, error) {
	if err := d.Validate(); err != nil {
		return nil, false, err
	}
	if err := d.CheckFinite(); err != nil {
		return nil, false, err
	}
	if d.N() == 0 {
		// Symmetric with WriteBinary: an empty dataset has no recoverable
		// dimension, so it could never be persisted or reloaded.
		return nil, false, errors.New("registry: refusing to store an empty dataset")
	}
	d.Flatten()
	id := ID(d.Fingerprint())

	r.mu.Lock()
	h := r.reuploadLocked(id, d)
	r.mu.Unlock()
	if h != nil {
		return h, false, nil
	}

	// New content: encode to a temp file outside the lock (uploads may be
	// large); installLocked renames it onto the content-addressed path
	// under the lock below.
	tmp, err := r.writeTemp(id, func(w io.Writer) error { return dataset.WriteBinary(w, d) })
	if err != nil {
		return nil, false, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.reuploadLocked(id, d); h != nil {
		// Lost a Put race; fold into the idempotent path.
		r.discard(tmp)
		return h, false, nil
	}
	size := encodedBytes(d)
	e := &entry{info: Info{
		ID: id, Name: d.Name, Rows: d.N(), Dim: d.Dim(),
		Classes: d.Classes, Regression: d.IsRegression(), Bytes: size,
	}}
	e.id, e.refs = id, 1
	if err := r.installLocked(e, tmp, size); err != nil {
		return nil, false, err
	}
	r.insertResidentLocked(e, d)
	r.st.Puts++
	return &Handle{r: r, e: e, d: d}, true, nil
}

// reuploadLocked serves a Put of content already stored as a pinned hit,
// or returns nil when id is not stored. The file is trusted, and the
// uploaded copy, which IS the content, fills an evicted payload instead of
// a re-read (insertResidentLocked keeps one already resident).
func (r *Registry) reuploadLocked(id string, d *dataset.Dataset) *Handle {
	e, ok := r.entries[id]
	if !ok {
		return nil
	}
	r.st.Reuploads++
	r.pinLocked(e)
	r.insertResidentLocked(e, d)
	return &Handle{r: r, e: e, d: e.data}
}

// insertResidentLocked puts e's payload into the memory tier and rebalances
// the LRU. Idempotent: an already-resident entry is only refreshed (its
// existing payload wins — re-inserting would double-count memBytes and
// orphan its LRU element). Callers hold r.mu.
func (r *Registry) insertResidentLocked(e *entry, d *dataset.Dataset) {
	if e.data != nil {
		r.resident.MoveToFront(e.elem)
		return
	}
	e.data = d
	e.elem = r.resident.PushFront(e)
	r.memBytes += e.info.Bytes
	r.evictLocked()
}

// evictLocked drops least-recently-used payloads until the memory tier fits
// the budget. Only spillable entries (those with a disk copy) are evicted;
// the most recent entry is always kept so the tier can admit datasets larger
// than the whole budget.
func (r *Registry) evictLocked() {
	for r.memBytes > r.cfg.MemBudget && r.resident.Len() > 1 {
		evicted := false
		for el := r.resident.Back(); el != nil && el != r.resident.Front(); {
			e := el.Value.(*entry)
			prev := el.Prev()
			if e.onDisk {
				r.dropResidentLocked(e)
				r.st.Evictions++
				evicted = true
				break
			}
			el = prev
		}
		if !evicted {
			return // nothing spillable below the front; over budget stays
		}
	}
}

// dropResidentLocked removes e's payload from the memory tier.
func (r *Registry) dropResidentLocked(e *entry) {
	if e.data == nil {
		return
	}
	e.data = nil
	r.resident.Remove(e.elem)
	e.elem = nil
	r.memBytes -= e.info.Bytes
}

// Get pins and returns the dataset stored under id. A memory-tier hit is a
// map lookup; a miss reloads the binary file (verifying that its content
// still hashes to id) and re-inserts the payload into the LRU. A file that
// fails the check fails this Get and is dropped, so id reads ErrNotFound
// until the content is uploaded again.
func (r *Registry) Get(id string) (*Handle, error) {
	return r.get(id, true)
}

// get is Get; a reload re-enters the memory tier only when resident is set.
func (r *Registry) get(id string, resident bool) (*Handle, error) {
	r.mu.Lock()
	e, err := r.getLocked(id)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.pinLocked(e) // pin before unlocking so Delete cannot remove the file mid-load
	if e.data != nil {
		r.st.Hits++
		r.resident.MoveToFront(e.elem)
		h := &Handle{r: r, e: e, d: e.data}
		r.mu.Unlock()
		return h, nil
	}
	r.st.Misses++
	r.mu.Unlock()

	// Reload from disk, serialized per entry so a thundering herd decodes
	// the file once; the registry lock stays free during the read.
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	r.mu.Lock()
	if e.data != nil { // another loader won the race
		r.resident.MoveToFront(e.elem)
		h := &Handle{r: r, e: e, d: e.data}
		r.mu.Unlock()
		return h, nil
	}
	r.mu.Unlock()

	var d *dataset.Dataset
	if err := r.load(e, func(f io.Reader, _ int64) (err error) {
		if d, err = dataset.ReadBinary(f); err == nil && ID(d.Fingerprint()) != id {
			err = fmt.Errorf("corrupt: content hashes to %s", ID(d.Fingerprint()))
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", id, err)
	}
	d.Name = id

	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.Loads++
	if e.data != nil {
		// A Put of the same content raced the disk read (Put installs the
		// uploaded copy under r.mu without taking loadMu) — the entry is
		// already resident; inserting again would double-count memBytes and
		// orphan an LRU element. Serve the installed copy.
		r.resident.MoveToFront(e.elem)
		return &Handle{r: r, e: e, d: e.data}, nil
	}
	if resident && !e.deleted {
		// A Delete that raced the load has already dropped the entry from
		// the table; keep the payload out of the LRU (it would never be
		// evicted again) and let the handle alone carry it.
		r.insertResidentLocked(e, d)
	}
	return &Handle{r: r, e: e, d: d}, nil
}

// infoLocked materializes the dynamic fields of e's Info.
func (r *Registry) infoLocked(e *entry) Info {
	info := e.info
	info.InMemory = e.data != nil
	info.OnDisk = e.onDisk
	info.Refs = e.refs
	info.CreatedAt = e.created
	return info
}

// Stats returns current counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Datasets, st.Resident = len(r.entries), r.resident.Len()
	st.MemBytes, st.DiskBytes = r.memBytes, r.bytes
	st.MemBudget, st.DiskBudget = r.cfg.MemBudget, r.cfg.DiskBudget
	st.Deletes, st.Reclaims, st.Corrupt = r.deletes, r.reclaims, r.corrupt
	return st
}

// WriteTo writes the stored dataset id in its binary encoding to w — the
// download side of the content-addressed store. It serves verified content
// only: the resident copy, or the file reloaded through Get's decode and
// content-hash check (a file that fails is dropped and counted, and id then
// reads ErrNotFound), without promoting it into the memory tier. Nothing
// is written to w before the check passes. The dataset is pinned for the
// duration, so a concurrent Delete cannot remove the file mid-stream.
func (r *Registry) WriteTo(w io.Writer, id string) error {
	h, err := r.get(id, false)
	if err != nil {
		return err
	}
	defer h.Release()
	return dataset.WriteBinary(w, h.Dataset())
}

// encodedBytes is the binary-encoded size of d, the unit both tiers account
// in (the decoded in-memory footprint tracks it closely: the same float64
// payload plus small slice headers).
func encodedBytes(d *dataset.Dataset) int64 {
	h := dataset.BinaryHeader{
		N: d.N(), Dim: d.Dim(), Classes: d.Classes, Regression: d.IsRegression(),
	}
	return h.EncodedBytes()
}
