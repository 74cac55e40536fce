package registry

import (
	"os"
	"path/filepath"
	"testing"
)

// Opening either kind's store removes the temp files an interrupted write
// left behind, and only those: other files in the directory survive, and
// no temp byte is accounted.
func TestOpenRemovesStaleTempFiles(t *testing.T) {
	mib := make([]byte, 1<<20)
	plant := func(t *testing.T, dir string, names ...string) {
		t.Helper()
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), mib, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, dir string, gone, kept []string) {
		t.Helper()
		for _, name := range gone {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Errorf("%s survived the open: %v", name, err)
			}
		}
		for _, name := range kept {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("%s removed by the open: %v", name, err)
			}
		}
	}
	// Stems the store does not mint, suffixes that are not CreateTemp's.
	kept := []string{"notes.txt", "journal.tmp12", "0123456789abcdef.tmp", "0123456789abcdef.tmpx1"}

	t.Run("datasets", func(t *testing.T) {
		dir := t.TempDir()
		plant(t, dir, append([]string{"0123456789abcdef.tmp4242"}, kept...)...)
		r, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		check(t, dir, []string{"0123456789abcdef.tmp4242"}, kept)
		if st := r.Stats(); st.DiskBytes != 0 || st.Datasets != 0 || st.Corrupt != 0 {
			t.Fatalf("stats %+v, want an empty store", st)
		}
	})
	t.Run("indexes", func(t *testing.T) {
		dir := t.TempDir()
		tmp := IndexID(testDS, "kd", "leaf=16") + ".tmp77"
		plant(t, dir, append([]string{tmp}, kept...)...)
		s, err := NewIndexStore(IndexConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		check(t, dir, []string{tmp}, kept)
		if st := s.Stats(); st.DiskBytes != 0 || st.Indexes != 0 || st.Corrupt != 0 {
			t.Fatalf("stats %+v, want an empty store", st)
		}
	})
}

// Reclaim never removes a pinned entry, even when that leaves the store
// over budget for a while; once unpinned it goes in least-recently-used
// order the next time a write needs the room.
func TestReclaimSkipsPinned(t *testing.T) {
	blob := make([]byte, 50) // about 100 bytes with the container header
	s, _ := newTestIndexStore(t, 150)
	if _, err := s.Put(testDS, "lsh", "a", blob); err != nil {
		t.Fatal(err)
	}
	h, ok := s.Get(testDS, "lsh", "a")
	if !ok {
		t.Fatal("Get missed")
	}
	if _, err := s.Put(testDS, "lsh", "b", blob); err != nil {
		t.Fatal(err)
	}
	if !s.Has(testDS, "lsh", "a") || !s.Has(testDS, "lsh", "b") {
		t.Fatal("reclaim removed a pinned index or the one just written")
	}
	h.Release()
	if _, err := s.Put(testDS, "lsh", "c", blob); err != nil {
		t.Fatal(err)
	}
	if s.Has(testDS, "lsh", "a") || s.Has(testDS, "lsh", "b") || !s.Has(testDS, "lsh", "c") {
		t.Fatalf("after the release: %+v, want only c", s.List())
	}
	if st := s.Stats(); st.Reclaims != 2 || st.DiskBytes > 150 {
		t.Fatalf("stats %+v, want 2 reclaims within budget", st)
	}
}
