package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const (
	testDS  = "00112233445566aa"
	testDS2 = "ffeeddccbbaa9988"
)

func newTestIndexStore(t *testing.T, budget int64) (*IndexStore, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewIndexStore(IndexConfig{Dir: dir, DiskBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"+indexExt))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func TestIndexStoreRoundTrip(t *testing.T) {
	s, dir := newTestIndexStore(t, 0)
	payload := []byte("serialized index bytes")
	info, err := s.Put(testDS, "lsh", "k=70 delta=0.1", payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != IndexID(testDS, "lsh", "k=70 delta=0.1") {
		t.Fatalf("unexpected id %s", info.ID)
	}
	if countFiles(t, dir) != 1 {
		t.Fatalf("want 1 file, got %d", countFiles(t, dir))
	}
	if !s.Has(testDS, "lsh", "k=70 delta=0.1") {
		t.Fatal("Has = false after Put")
	}
	if s.Has(testDS, "lsh", "k=70 delta=0.2") {
		t.Fatal("Has = true for different key")
	}
	h, ok := s.Get(testDS, "lsh", "k=70 delta=0.1")
	if !ok {
		t.Fatal("Get missed after Put")
	}
	if !bytes.Equal(h.Payload(), payload) {
		t.Fatalf("payload changed: %q", h.Payload())
	}
	if h.Info().Dataset != testDS || h.Info().Kind != "lsh" {
		t.Fatalf("bad handle info %+v", h.Info())
	}
	h.Release()
	h.Release() // idempotent
	if _, ok := s.Get(testDS, "lsh", "other"); ok {
		t.Fatal("Get hit for unknown key")
	}
	st := s.Stats()
	if st.Indexes != 1 || st.Saves != 1 || st.Loads != 1 || st.Misses != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.DiskBytes <= int64(len(payload)) {
		t.Fatalf("disk bytes %d should include container overhead", st.DiskBytes)
	}
}

func TestIndexStoreDeleteDefersToLastHandle(t *testing.T) {
	s, dir := newTestIndexStore(t, 0)
	if _, err := s.Put(testDS, "kd", "leaf=16", []byte("tree")); err != nil {
		t.Fatal(err)
	}
	h, ok := s.Get(testDS, "kd", "leaf=16")
	if !ok {
		t.Fatal("Get missed")
	}
	id := h.Info().ID
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err == nil {
		t.Fatal("double delete accepted")
	}
	if s.Has(testDS, "kd", "leaf=16") {
		t.Fatal("deleted index still visible")
	}
	if countFiles(t, dir) != 1 {
		t.Fatal("file removed while a handle is open")
	}
	h.Release()
	if countFiles(t, dir) != 0 {
		t.Fatal("file not removed at last release")
	}
}

func TestIndexStoreDeleteDataset(t *testing.T) {
	s, dir := newTestIndexStore(t, 0)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.Put(testDS, "lsh", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put(testDS2, "lsh", "a", []byte("other")); err != nil {
		t.Fatal(err)
	}
	if n := s.DeleteDataset(testDS); n != 3 {
		t.Fatalf("DeleteDataset removed %d, want 3", n)
	}
	if countFiles(t, dir) != 1 {
		t.Fatalf("want 1 surviving file, got %d", countFiles(t, dir))
	}
	if !s.Has(testDS2, "lsh", "a") {
		t.Fatal("unrelated dataset's index removed")
	}
	if n := s.DeleteDataset(testDS); n != 0 {
		t.Fatalf("second DeleteDataset removed %d", n)
	}
}

func TestIndexStoreDiskBudgetLRU(t *testing.T) {
	now := time.Unix(1000, 0)
	dir := t.TempDir()
	s, err := NewIndexStore(IndexConfig{
		Dir: dir, DiskBudget: 260,
		Now: func() time.Time { now = now.Add(time.Second); return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 50) // ~100 bytes with container overhead
	if _, err := s.Put(testDS, "lsh", "first", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testDS, "lsh", "second", blob); err != nil {
		t.Fatal(err)
	}
	// Touch "first" so "second" becomes the LRU victim.
	if h, ok := s.Get(testDS, "lsh", "first"); ok {
		h.Release()
	} else {
		t.Fatal("Get missed")
	}
	if _, err := s.Put(testDS, "lsh", "third", blob); err != nil {
		t.Fatal(err)
	}
	if s.Has(testDS, "lsh", "second") {
		t.Fatal("LRU victim survived")
	}
	if !s.Has(testDS, "lsh", "first") || !s.Has(testDS, "lsh", "third") {
		t.Fatal("wrong index reclaimed")
	}
	st := s.Stats()
	if st.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", st.Reclaims)
	}
	if st.DiskBytes > 260 {
		t.Fatalf("disk bytes %d above budget", st.DiskBytes)
	}
}

func TestIndexStoreCorruptFileDropped(t *testing.T) {
	s, dir := newTestIndexStore(t, 0)
	info, err := s.Put(testDS, "lsh", "key", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, info.ID+indexExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testDS, "lsh", "key"); ok {
		t.Fatal("corrupt container loaded")
	}
	if s.Has(testDS, "lsh", "key") {
		t.Fatal("corrupt index still listed")
	}
	if countFiles(t, dir) != 0 {
		t.Fatal("corrupt file not removed")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
}

func TestIndexStoreStartupScan(t *testing.T) {
	dir := t.TempDir()
	s, err := NewIndexStore(IndexConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testDS, "lsh", "key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testDS, "kd", "leaf=16", []byte("tree")); err != nil {
		t.Fatal(err)
	}
	// Plant one corrupt container and one stray file; the scan must drop the
	// former and ignore the latter.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.lsh.0000000000000000"+indexExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	back, err := NewIndexStore(IndexConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.List()); got != 2 {
		t.Fatalf("scan found %d indexes, want 2", got)
	}
	h, ok := back.Get(testDS, "lsh", "key")
	if !ok {
		t.Fatal("scanned index not loadable")
	}
	if !bytes.Equal(h.Payload(), []byte("payload")) {
		t.Fatalf("payload changed across restart: %q", h.Payload())
	}
	h.Release()
	if st := back.Stats(); st.Corrupt != 1 {
		t.Fatalf("scan corrupt = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("scan removed an unrelated file")
	}
}

func TestIndexStorePutReplacesSameIdentity(t *testing.T) {
	s, dir := newTestIndexStore(t, 0)
	if _, err := s.Put(testDS, "lsh", "key", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testDS, "lsh", "key", []byte("v2 longer payload")); err != nil {
		t.Fatal(err)
	}
	if countFiles(t, dir) != 1 {
		t.Fatalf("want 1 file after replace, got %d", countFiles(t, dir))
	}
	h, ok := s.Get(testDS, "lsh", "key")
	if !ok {
		t.Fatal("Get missed")
	}
	defer h.Release()
	if !bytes.Equal(h.Payload(), []byte("v2 longer payload")) {
		t.Fatalf("replace kept old payload: %q", h.Payload())
	}
	var total int64
	for _, info := range s.List() {
		total += info.Bytes
	}
	if st := s.Stats(); st.DiskBytes != total {
		t.Fatalf("accounting drifted: diskBytes %d vs sum %d", st.DiskBytes, total)
	}
}

// FuzzIndexContainer: arbitrary bytes never panic the container header
// parser, a header it accepts re-encodes to the same bytes, and a
// container built from any identity within the key limit round-trips.
func FuzzIndexContainer(f *testing.F) {
	hdr, err := containerHeader(testDS, "lsh", "k=70 delta=0.1")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(hdr, "payload"...), testDS, "lsh", "k=70 delta=0.1", []byte("payload"))
	f.Add([]byte("garbage"), "", "", "", []byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte, ds, kind, key string, payload []byte) {
		if gds, gkind, gkey, n, err := readContainerHeader(bytes.NewReader(raw)); err == nil {
			h, err := containerHeader(gds, gkind, gkey)
			if err != nil || !bytes.Equal(h, raw[:n]) {
				t.Fatalf("accepted header does not re-encode: %v", err)
			}
		}
		if len(ds) > maxKeyLen || len(kind) > maxKeyLen || len(key) > maxKeyLen {
			return
		}
		h, err := containerHeader(ds, kind, key)
		if err != nil {
			t.Fatal(err)
		}
		c := append(h, payload...)
		gds, gkind, gkey, n, err := readContainerHeader(bytes.NewReader(c))
		if err != nil || gds != ds || gkind != kind || gkey != key || n != len(h) || !bytes.Equal(c[n:], payload) {
			t.Fatalf("round trip: (%q,%q,%q) header %d of %d bytes, err %v", gds, gkind, gkey, n, len(h), err)
		}
	})
}
