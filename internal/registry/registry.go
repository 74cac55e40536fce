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
	"os"
	"path/filepath"
	"sort"
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

func (c Config) withDefaults() Config {
	if c.MemBudget <= 0 {
		c.MemBudget = 256 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
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
}

// entry is one stored dataset. Fields are guarded by Registry.mu except
// loadMu, which serializes the disk reload of exactly this entry while the
// registry lock stays free for everyone else.
type entry struct {
	id   string
	info Info // static metadata; InMemory/Refs materialized in infoLocked

	data     *dataset.Dataset // resident payload, nil when evicted
	elem     *list.Element    // position in the LRU while resident
	refs     int
	deleted  bool
	onDisk   bool
	lastUsed time.Time // last Get/Put touch; orders disk-budget reclaim

	loadMu sync.Mutex
}

// Registry is the concurrency-safe two-tier store. Create one with New.
type Registry struct {
	cfg Config

	mu        sync.Mutex
	entries   map[string]*entry
	resident  *list.List // front = most recently used *entry
	memBytes  int64
	diskBytes int64
	lineage   map[string]Lineage // child ID → derivation, for versioned datasets

	st Stats // the counters; Stats fills in the gauges
}

// New opens a registry. With a disk tier configured the directory is created
// if needed and existing *.knnsb files are indexed (payloads stay on disk
// until first Get); files that are not parseable dataset headers are
// ignored.
func New(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:      cfg,
		entries:  make(map[string]*entry),
		resident: list.New(),
		lineage:  make(map[string]Lineage),
	}
	if cfg.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	files, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	now := cfg.Now()
	for _, f := range files {
		id, ok := strings.CutSuffix(f.Name(), fileExt)
		if !ok || f.IsDir() || !validID(id) {
			continue
		}
		info, err := indexFile(filepath.Join(cfg.Dir, f.Name()))
		if err != nil {
			continue
		}
		info.ID = id
		info.CreatedAt = now
		r.entries[id] = &entry{id: id, info: info, onDisk: true, lastUsed: now}
		r.diskBytes += info.Bytes
	}
	return r, nil
}

// validID reports whether id is a 16-hex-digit fingerprint — the only IDs
// the registry mints, and the only file stems it will touch on disk.
func validID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// indexFile reads just the binary header of one stored dataset.
func indexFile(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	h, err := dataset.ReadBinaryHeader(f)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Rows: h.N, Dim: h.Dim, Classes: h.Classes, Regression: h.Regression,
		Bytes: h.EncodedBytes(),
	}, nil
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

func (r *Registry) release(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.refs--
	if e.deleted && e.refs == 0 {
		r.removeFileLocked(e)
	}
}

// removeFileLocked deletes e's backing file unless its ID has been
// re-registered since the Delete (the new entry owns the path now).
func (r *Registry) removeFileLocked(e *entry) {
	if !e.onDisk {
		return
	}
	e.onDisk = false
	if cur, ok := r.entries[e.id]; ok && cur != e {
		return
	}
	os.Remove(r.path(e.id))
}

func (r *Registry) path(id string) string {
	return filepath.Join(r.cfg.Dir, id+fileExt)
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
	size := encodedBytes(d)

	r.mu.Lock()
	if e, ok := r.entries[id]; ok && !e.deleted {
		r.st.Reuploads++
		e.refs++
		e.lastUsed = r.cfg.Now()
		// Evicted (or never loaded since a restart): the uploaded copy IS
		// the content, so install it instead of re-reading the file
		// (insertResidentLocked keeps the existing payload when resident).
		r.insertResidentLocked(e, d)
		h := &Handle{r: r, e: e, d: e.data}
		r.mu.Unlock()
		return h, false, nil
	}
	r.mu.Unlock()

	// New content: encode to a temp file outside the lock (uploads may be
	// large), but rename it onto the content-addressed path only under the
	// lock below. Serializing every final-path rename and remove on r.mu is
	// what makes the interleavings safe: a deferred delete (last Release of
	// a removed entry) can never clobber a file a racing re-upload just
	// installed, because the re-upload's entry is in the table before its
	// rename becomes visible.
	tmpPath := ""
	if r.cfg.Dir != "" {
		var err error
		if tmpPath, err = r.writeTemp(id, d); err != nil {
			return nil, false, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok && !e.deleted {
		// Lost a Put race; fold into the idempotent path.
		if tmpPath != "" {
			os.Remove(tmpPath)
		}
		r.st.Reuploads++
		e.refs++
		e.lastUsed = r.cfg.Now()
		r.insertResidentLocked(e, d)
		return &Handle{r: r, e: e, d: e.data}, false, nil
	}
	onDisk := false
	if tmpPath != "" {
		if err := os.Rename(tmpPath, r.path(id)); err != nil {
			os.Remove(tmpPath)
			return nil, false, fmt.Errorf("registry: %w", err)
		}
		onDisk = true
	}
	now := r.cfg.Now()
	e := &entry{
		id: id,
		info: Info{
			ID: id, Name: d.Name, Rows: d.N(), Dim: d.Dim(),
			Classes: d.Classes, Regression: d.IsRegression(),
			Bytes: size, CreatedAt: now,
		},
		refs:     1,
		onDisk:   onDisk,
		lastUsed: now,
	}
	r.entries[id] = e
	if onDisk {
		r.diskBytes += size
	}
	r.insertResidentLocked(e, d)
	r.reclaimDiskLocked()
	r.st.Puts++
	return &Handle{r: r, e: e, d: d}, true, nil
}

// reclaimDiskLocked enforces the disk budget by removing entire datasets —
// least recently used first, skipping pinned ones — once the disk tier
// overflows. Reclaimed IDs behave like deleted ones; the content can
// always be re-uploaded. Callers hold r.mu.
func (r *Registry) reclaimDiskLocked() {
	if r.cfg.DiskBudget <= 0 || r.diskBytes <= r.cfg.DiskBudget {
		return
	}
	cands := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.refs == 0 && e.onDisk {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUsed.Before(cands[j].lastUsed) })
	for _, e := range cands {
		if r.diskBytes <= r.cfg.DiskBudget {
			return
		}
		e.deleted = true
		delete(r.entries, e.id)
		r.dropResidentLocked(e)
		r.diskBytes -= e.info.Bytes
		r.removeFileLocked(e)
		r.st.Reclaims++
	}
}

// writeTemp encodes d into a fresh temp file in the registry directory and
// returns its path; the caller renames it onto the content-addressed path
// under r.mu (or removes it on abort). fsync semantics are left to the OS.
func (r *Registry) writeTemp(id string, d *dataset.Dataset) (string, error) {
	tmp, err := os.CreateTemp(r.cfg.Dir, id+".tmp*")
	if err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	if err := dataset.WriteBinary(tmp, d); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("registry: write %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("registry: %w", err)
	}
	return tmp.Name(), nil
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
// still hashes to id) and re-inserts the payload into the LRU.
func (r *Registry) Get(id string) (*Handle, error) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok || e.deleted {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e.refs++ // pin before unlocking so Delete cannot remove the file mid-load
	e.lastUsed = r.cfg.Now()
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
	path := r.path(id)
	r.mu.Unlock()

	d, err := loadFile(path, id)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		e.refs--
		if e.deleted && e.refs == 0 {
			r.removeFileLocked(e)
		}
		return nil, err
	}
	r.st.Loads++
	if e.data != nil {
		// A Put of the same content raced the disk read (Put installs the
		// uploaded copy under r.mu without taking loadMu) — the entry is
		// already resident; inserting again would double-count memBytes and
		// orphan an LRU element. Serve the installed copy.
		r.resident.MoveToFront(e.elem)
		return &Handle{r: r, e: e, d: e.data}, nil
	}
	if !e.deleted {
		// A Delete that raced the load has already dropped the entry from
		// the table; keep the payload out of the LRU (it would never be
		// evicted again) and let the handle alone carry it.
		r.insertResidentLocked(e, d)
	}
	return &Handle{r: r, e: e, d: d}, nil
}

// loadFile decodes one stored dataset and verifies its content address.
func loadFile(path, id string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", id, err)
	}
	defer f.Close()
	d, err := dataset.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", id, err)
	}
	if got := ID(d.Fingerprint()); got != id {
		return nil, fmt.Errorf("registry: %s is corrupt: content hashes to %s", id, got)
	}
	d.Name = id
	return d, nil
}

// Delete removes id from the registry: it disappears from Get/List/Stat
// immediately, and the backing file is removed once the last outstanding
// handle is released (running jobs keep their data). Deleting an unknown id
// returns ErrNotFound.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok || e.deleted {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e.deleted = true
	delete(r.entries, id)
	r.dropResidentLocked(e)
	if e.onDisk {
		r.diskBytes -= e.info.Bytes
	}
	if e.refs == 0 {
		r.removeFileLocked(e)
	}
	r.st.Deletes++
	return nil
}

// infoLocked materializes the dynamic fields of e's Info.
func (r *Registry) infoLocked(e *entry) Info {
	info := e.info
	info.InMemory = e.data != nil
	info.OnDisk = e.onDisk
	info.Refs = e.refs
	return info
}

// Stat returns the metadata of one stored dataset.
func (r *Registry) Stat(id string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok || e.deleted {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return r.infoLocked(e), nil
}

// List returns the metadata of every stored dataset, ordered by ID.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, r.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns current counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Datasets, st.Resident = len(r.entries), r.resident.Len()
	st.MemBytes, st.DiskBytes = r.memBytes, r.diskBytes
	st.MemBudget, st.DiskBudget = r.cfg.MemBudget, r.cfg.DiskBudget
	return st
}

// WriteTo streams the stored dataset id in its binary encoding to w — the
// download side of the content-addressed store. A dataset with a disk copy
// is streamed straight from its file (no decode, no memory-tier traffic;
// the registry wrote those bytes atomically itself); a memory-only dataset
// is encoded on the fly. The dataset is pinned for the duration, so a
// concurrent Delete cannot remove the file mid-stream.
func (r *Registry) WriteTo(w io.Writer, id string) error {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok || e.deleted {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e.refs++
	onDisk := e.onDisk
	path := r.path(id)
	r.mu.Unlock()
	defer r.release(e)

	if onDisk {
		f, err := os.Open(path)
		if err == nil {
			defer f.Close()
			_, err = io.Copy(w, f)
			return err
		}
		// Fall through to the decode path if the file went missing.
	}
	h, err := r.Get(id)
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
