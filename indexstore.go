package knnshapley

import (
	"bytes"
	"io"

	"knnshapley/internal/registry"
)

// IndexStore is the persistence hook a Valuer uses to reload ANN indexes
// instead of rebuilding them. A session-cache miss first asks the store for
// a serialized index under (dataset, kind, key) — dataset is the 16-hex
// content fingerprint of the training set, kind the index family ("lsh" or
// "kd"), key the canonical build parameters — and only tunes and builds from
// scratch when the store has nothing; a fresh build is offered back via
// PutIndex so the next session (or the next process) skips it.
//
// Implementations must be safe for concurrent use. Every method is
// best-effort from the Valuer's point of view: a failed load or save falls
// back to building, never fails the valuation.
type IndexStore interface {
	// GetIndex returns a reader over the serialized index stored under the
	// given identity, or (nil, false) when none is held. The caller closes
	// the reader when decoding finishes.
	GetIndex(dataset, kind, key string) (io.ReadCloser, bool)
	// PutIndex persists one serialized index under the given identity,
	// replacing any previous content.
	PutIndex(dataset, kind, key string, blob []byte) error
	// HasIndex reports whether an index is persisted under the given
	// identity without loading it — the planner's "is the build already
	// paid for?" probe.
	HasIndex(dataset, kind, key string) bool
}

// WithIndexStore attaches a persistent index store to the session: LSH and
// k-d indexes are reloaded from it on session-cache miss (counted by
// IndexLoads, not IndexBuilds) and fresh builds are persisted back into it.
func WithIndexStore(s IndexStore) Option { return func(c *config) { c.Indexes = s } }

// OpenIndexDir opens (creating if needed) a disk-backed index store rooted
// at dir, holding one CRC-verified container file per index. diskBudget
// bounds the total bytes (0 = unbounded); under pressure the
// least-recently-used indexes are reclaimed and simply rebuilt on next use.
func OpenIndexDir(dir string, diskBudget int64) (IndexStore, error) {
	s, err := registry.NewIndexStore(registry.IndexConfig{Dir: dir, DiskBudget: diskBudget})
	if err != nil {
		return nil, err
	}
	return DiskIndexStore{s: s}, nil
}

// DiskIndexStore adapts the registry's refcounted index store to the
// IndexStore interface. The zero value is unusable; construct one with
// OpenIndexDir or WrapIndexStore.
type DiskIndexStore struct {
	s *registry.IndexStore
}

// WrapIndexStore adapts an existing registry index store (e.g. the one the
// valuation server manages for its /indexes endpoints) to the IndexStore
// interface, so server sessions and HTTP handlers share one store.
func WrapIndexStore(s *registry.IndexStore) DiskIndexStore { return DiskIndexStore{s: s} }

// handleReader streams a pinned payload and releases the pin on Close, so a
// concurrent delete cannot remove the file mid-decode.
type handleReader struct {
	*bytes.Reader
	h *registry.IndexHandle
}

func (r *handleReader) Close() error {
	r.h.Release()
	return nil
}

// GetIndex implements IndexStore.
func (d DiskIndexStore) GetIndex(dataset, kind, key string) (io.ReadCloser, bool) {
	h, ok := d.s.Get(dataset, kind, key)
	if !ok {
		return nil, false
	}
	return &handleReader{Reader: bytes.NewReader(h.Payload()), h: h}, true
}

// PutIndex implements IndexStore.
func (d DiskIndexStore) PutIndex(dataset, kind, key string, blob []byte) error {
	_, err := d.s.Put(dataset, kind, key, blob)
	return err
}

// HasIndex implements IndexStore.
func (d DiskIndexStore) HasIndex(dataset, kind, key string) bool {
	return d.s.Has(dataset, kind, key)
}
