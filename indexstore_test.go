package knnshapley

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"knnshapley/internal/core"
)

// TestIndexStoreReloadAcrossSessions exercises the persistence hook: the
// first session builds and persists, a second session over the same data
// reloads instead of rebuilding, and the reloaded indexes produce identical
// values.
func TestIndexStoreReloadAcrossSessions(t *testing.T) {
	store, err := OpenIndexDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	train := SynthGist(300, 1)
	test := SynthGist(10, 2)
	ctx := context.Background()

	v1, err := New(train, WithK(5), WithIndexStore(store))
	if err != nil {
		t.Fatal(err)
	}
	kd1, err := v1.KD(ctx, test, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lsh1, err := v1.LSH(ctx, test, 0.1, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v1.IndexBuilds() != 2 || v1.IndexLoads() != 0 {
		t.Fatalf("first session: builds=%d loads=%d, want 2/0", v1.IndexBuilds(), v1.IndexLoads())
	}
	if !v1.HasPersistedIndex("kd", core.KDIndexKey(0)) {
		t.Fatal("kd index not persisted")
	}

	// A fresh session over the same training set must reload both indexes —
	// zero builds — and reproduce the values bit for bit.
	v2, err := New(train, WithK(5), WithIndexStore(store))
	if err != nil {
		t.Fatal(err)
	}
	kd2, err := v2.KD(ctx, test, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lsh2, err := v2.LSH(ctx, test, 0.1, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v2.IndexBuilds() != 0 || v2.IndexLoads() != 2 {
		t.Fatalf("second session: builds=%d loads=%d, want 0/2", v2.IndexBuilds(), v2.IndexLoads())
	}
	for i := range kd1.Values {
		if kd1.Values[i] != kd2.Values[i] {
			t.Fatalf("kd values diverged after reload at %d: %v vs %v", i, kd1.Values[i], kd2.Values[i])
		}
		if lsh1.Values[i] != lsh2.Values[i] {
			t.Fatalf("lsh values diverged after reload at %d: %v vs %v", i, lsh1.Values[i], lsh2.Values[i])
		}
	}

	// The persisted k-d tree is eps-independent: a different eps still
	// reloads the same artifact.
	if _, err := v2.KD(ctx, test, 0.25); err != nil {
		t.Fatal(err)
	}
	if v2.IndexBuilds() != 0 || v2.IndexLoads() != 3 {
		t.Fatalf("kd eps=0.25: builds=%d loads=%d, want 0/3", v2.IndexBuilds(), v2.IndexLoads())
	}

	// A different training set must not alias the persisted indexes.
	v3, err := New(SynthGist(310, 9), WithK(5), WithIndexStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.KD(ctx, test, 0.1); err != nil {
		t.Fatal(err)
	}
	if v3.IndexBuilds() != 1 || v3.IndexLoads() != 0 {
		t.Fatalf("different dataset: builds=%d loads=%d, want 1/0", v3.IndexBuilds(), v3.IndexLoads())
	}
}

// TestIndexStoreReplacesUnsupportedLSHVersion pins the format-upgrade
// path: an LSH artifact whose codec version the decoder no longer reads
// is rebuilt, not loaded, and the rebuild replaces it, so the session
// after that loads again.
func TestIndexStoreReplacesUnsupportedLSHVersion(t *testing.T) {
	store, err := OpenIndexDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	train := SynthGist(300, 1)
	key := core.LSHConfig{K: 5, Eps: 0.1, Delta: 0.1, Seed: 7}.LSHIndexKey()
	ensure := func() (IndexStatus, string) {
		t.Helper()
		v, err := New(train, WithK(5), WithIndexStore(store))
		if err != nil {
			t.Fatal(err)
		}
		st, err := v.EnsureIndex("lsh", 0.1, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		return st, v.DatasetID()
	}
	stored := func(ds string) []byte {
		t.Helper()
		rc, ok := store.GetIndex(ds, "lsh", key)
		if !ok {
			t.Fatal("no LSH artifact in the store")
		}
		defer rc.Close()
		blob, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	st, ds := ensure()
	if !st.Built {
		t.Fatalf("first session: %+v, want a build", st)
	}
	built := stored(ds)
	// Set the lsh codec's version field (after core's 44-byte tuned-metadata
	// prefix and the 8-byte magic) to 2 and refresh the codec's CRC trailer,
	// so the version is the artifact's only defect.
	const metaLen = 5*8 + 4
	old := append([]byte(nil), built...)
	binary.LittleEndian.PutUint64(old[metaLen+8:], 2)
	binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[metaLen:len(old)-4]))
	if err := store.PutIndex(ds, "lsh", key, old); err != nil {
		t.Fatal(err)
	}

	if st, _ := ensure(); !st.Built || st.Loaded {
		t.Fatalf("session over the version-2 artifact: %+v, want built and not loaded", st)
	}
	if !bytes.Equal(stored(ds), built) {
		t.Fatal("the rebuild did not replace the version-2 artifact with the original build's bytes")
	}
	if st, _ := ensure(); !st.Loaded || st.Built {
		t.Fatalf("session after the replacement: %+v, want loaded", st)
	}
}

// TestIndexStoreLSHKeySharing pins the canonical-key contract: LSH configs
// with equal K* and tuning inputs share one persisted artifact even when
// (K, eps) differ.
func TestIndexStoreLSHKeySharing(t *testing.T) {
	a := core.LSHConfig{K: 10, Eps: 0.2, Delta: 0.1, Seed: 3}  // K* = max{10, 5} = 10
	b := core.LSHConfig{K: 10, Eps: 0.34, Delta: 0.1, Seed: 3} // K* = max{10, 3} = 10
	if a.LSHIndexKey() != b.LSHIndexKey() {
		t.Fatalf("equal-K* configs got different keys:\n%s\n%s", a.LSHIndexKey(), b.LSHIndexKey())
	}
	c := core.LSHConfig{K: 10, Eps: 0.05, Delta: 0.1, Seed: 3} // K* = 20
	if a.LSHIndexKey() == c.LSHIndexKey() {
		t.Fatalf("different-K* configs share key %s", a.LSHIndexKey())
	}
	d := core.LSHConfig{K: 10, Eps: 0.2, Delta: 0.1, Seed: 4}
	if a.LSHIndexKey() == d.LSHIndexKey() {
		t.Fatal("different seeds share a key")
	}
}
