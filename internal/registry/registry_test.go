package registry

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"knnshapley/internal/dataset"
)

// testData builds a small contiguous classification dataset whose content
// varies with seed, so distinct seeds yield distinct fingerprints.
func testData(t *testing.T, n, dim int, seed uint64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	d := dataset.FromFlat(flat, n, dim)
	d.Name = "test"
	d.Classes = 2
	d.Labels = make([]int, n)
	for i := range d.Labels {
		d.Labels[i] = i % 2
	}
	return d
}

func newTestRegistry(t *testing.T, budget int64) *Registry {
	t.Helper()
	r, err := New(Config{Dir: t.TempDir(), MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	d := testData(t, 10, 3, 1)
	want := d.Fingerprint()

	h, created, err := r.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported existing content")
	}
	if h.ID() != ID(want) {
		t.Fatalf("id %s, want %s", h.ID(), ID(want))
	}
	h.Release()

	g, err := r.Get(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if g.Dataset().Fingerprint() != want {
		t.Fatal("Get returned different content")
	}
	st := r.Stats()
	if st.Datasets != 1 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.MemBytes == 0 || st.DiskBytes == 0 || st.MemBytes != st.DiskBytes {
		t.Fatalf("tier accounting %+v", st)
	}
}

func TestPutIdempotent(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	h1, created, err := r.Put(testData(t, 8, 2, 3))
	if err != nil || !created {
		t.Fatalf("first Put: created=%v err=%v", created, err)
	}
	// Same content, independently built (different backing arrays).
	h2, created, err := r.Put(testData(t, 8, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("re-upload reported new content")
	}
	if h1.ID() != h2.ID() {
		t.Fatalf("ids differ: %s vs %s", h1.ID(), h2.ID())
	}
	st := r.Stats()
	if st.Datasets != 1 || st.Puts != 1 || st.Reuploads != 1 {
		t.Fatalf("stats %+v", st)
	}
	h1.Release()
	h2.Release()
}

func TestGetUnknown(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	if _, err := r.Get("00000000deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v, want ErrNotFound", err)
	}
	if err := r.Delete("00000000deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete err %v, want ErrNotFound", err)
	}
	if _, err := r.Stat("00000000deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat err %v, want ErrNotFound", err)
	}
}

// Eviction: a budget that fits one dataset spills the older one to disk
// only; the next Get reloads it transparently and counts a miss + load.
func TestEvictionAndReload(t *testing.T) {
	d1 := testData(t, 64, 4, 1)
	d2 := testData(t, 64, 4, 2)
	budget := encodedBytes(d1) + encodedBytes(d2)/2 // fits one, not two
	r := newTestRegistry(t, budget)

	h1, _, err := r.Put(d1)
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()
	h2, _, err := r.Put(d2)
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()

	st := r.Stats()
	if st.Evictions != 1 || st.Resident != 1 {
		t.Fatalf("after second Put: %+v", st)
	}
	i1, err := r.Stat(h1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if i1.InMemory || !i1.OnDisk {
		t.Fatalf("evicted dataset info %+v", i1)
	}

	g, err := r.Get(h1.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if g.Dataset().Fingerprint() != d1.Fingerprint() {
		t.Fatal("reloaded content differs")
	}
	st = r.Stats()
	if st.Misses != 1 || st.Loads != 1 {
		t.Fatalf("after reload: %+v", st)
	}
}

// Delete hides the dataset immediately but keeps the file while handles are
// out; the last Release removes it.
func TestDeleteWhileHeld(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	h, _, err := r.Put(testData(t, 10, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(r.cfg.Dir, h.ID()+fileExt)

	if err := r.Delete(h.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(h.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}
	if len(r.List()) != 0 {
		t.Fatal("deleted dataset still listed")
	}
	// The handle's data stays usable and the file survives until release.
	if h.Dataset().N() != 10 {
		t.Fatal("held dataset damaged by Delete")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("backing file removed while a handle is held: %v", err)
	}
	h.Release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("backing file not removed after last release: %v", err)
	}
}

// Re-uploading content whose Delete is still pending (handles out) must not
// let the old entry's deferred cleanup remove the new entry's file.
func TestDeleteThenReuploadKeepsFile(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	h, _, err := r.Put(testData(t, 10, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(h.ID()); err != nil {
		t.Fatal(err)
	}
	h2, created, err := r.Put(testData(t, 10, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("re-upload after delete should be a new entry")
	}
	h.Release() // old entry's deferred cleanup fires here
	path := filepath.Join(r.cfg.Dir, h2.ID()+fileExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("new entry's file removed by stale cleanup: %v", err)
	}
	g, err := r.Get(h2.ID())
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	h2.Release()
}

// A restarted registry re-indexes its directory: metadata available
// immediately, payloads loaded lazily on first Get.
func TestReopenRecoversDatasets(t *testing.T) {
	dir := t.TempDir()
	r1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d := testData(t, 12, 5, 9)
	h, _, err := r1.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	h.Release()

	r2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info, err := r2.Stat(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 12 || info.Dim != 5 || info.InMemory || !info.OnDisk {
		t.Fatalf("recovered info %+v", info)
	}
	g, err := r2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if g.Dataset().Fingerprint() != d.Fingerprint() {
		t.Fatal("recovered content differs")
	}
	if st := r2.Stats(); st.Loads != 1 {
		t.Fatalf("stats after lazy load %+v", st)
	}
}

// A corrupted file fails Get with a content-address mismatch rather than
// serving wrong data.
func TestCorruptFileDetected(t *testing.T) {
	r := newTestRegistry(t, 1<<10) // tiny budget forces eviction to disk
	h, _, err := r.Put(testData(t, 64, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	h.Release()
	// Push it out of memory with a second dataset.
	h2, _, err := r.Put(testData(t, 64, 4, 12))
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if info, _ := r.Stat(id); info.InMemory {
		t.Skip("first dataset not evicted; budget too large for this test")
	}
	path := filepath.Join(r.cfg.Dir, id+fileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(id); err == nil {
		t.Fatal("corrupt file served without error")
	}
}

// Memory-only registries (no Dir) never evict — there is nowhere to reload
// from — and never touch disk.
func TestMemoryOnlyRegistry(t *testing.T) {
	r, err := New(Config{MemBudget: 1}) // absurdly small budget
	if err != nil {
		t.Fatal(err)
	}
	h1, _, err := r.Put(testData(t, 32, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()
	h2, _, err := r.Put(testData(t, 32, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	st := r.Stats()
	if st.Evictions != 0 || st.Resident != 2 || st.DiskBytes != 0 {
		t.Fatalf("memory-only stats %+v", st)
	}
	for _, id := range []string{h1.ID(), h2.ID()} {
		g, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
}

// WriteTo streams the stored binary encoding, bit-identical to re-encoding
// the dataset directly.
func TestWriteTo(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	d := testData(t, 6, 2, 21)
	h, _, err := r.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	var got, want bytes.Buffer
	if err := r.WriteTo(&got, h.ID()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBinary(&want, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteTo bytes differ from WriteBinary")
	}
}

// Race: many goroutines uploading the same content concurrently end up with
// one entry, one file, and all handles serving the same fingerprint.
func TestRaceConcurrentIdempotentPut(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	want := testData(t, 40, 6, 33).Fingerprint()
	const workers = 16
	var wg sync.WaitGroup
	ids := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, _, err := r.Put(testData(t, 40, 6, 33))
			if err != nil {
				t.Error(err)
				return
			}
			ids[w] = h.ID()
			if h.Dataset().Fingerprint() != want {
				t.Error("handle serves wrong content")
			}
			h.Release()
		}(w)
	}
	wg.Wait()
	for _, id := range ids {
		if id != ID(want) {
			t.Fatalf("id %s, want %s", id, ID(want))
		}
	}
	st := r.Stats()
	if st.Datasets != 1 || st.Puts != 1 || st.Reuploads != workers-1 {
		t.Fatalf("stats %+v", st)
	}
	files, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d files on disk, want 1", len(files))
	}
}

// Race: Get/Delete/Put interleavings on one id. Every successful Get must
// serve intact content, whatever the deletion state.
func TestRaceDeleteWhileJobHoldsRef(t *testing.T) {
	r := newTestRegistry(t, 1<<20)
	d := testData(t, 40, 6, 44)
	want := d.Fingerprint()
	h, _, err := r.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g, err := r.Get(id)
				if err != nil {
					continue // deleted; acceptable
				}
				if g.Dataset().Fingerprint() != want {
					t.Error("Get served wrong content")
				}
				g.Release()
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			r.Delete(id)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if nh, _, err := r.Put(testData(t, 40, 6, 44)); err == nil {
				nh.Release()
			}
		}
	}()
	wg.Wait()
	h.Release()
}

// Race: a tight byte budget keeps evicting while readers force reloads from
// disk; content must stay intact throughout.
func TestRaceEvictReload(t *testing.T) {
	d1 := testData(t, 64, 4, 51)
	d2 := testData(t, 64, 4, 52)
	r := newTestRegistry(t, encodedBytes(d1)+1) // exactly one resident
	fps := map[string]uint64{}
	for _, d := range []*dataset.Dataset{d1, d2} {
		fp := d.Fingerprint()
		h, _, err := r.Put(d)
		if err != nil {
			t.Fatal(err)
		}
		fps[h.ID()] = fp
		h.Release()
	}
	var wg sync.WaitGroup
	for id, fp := range fps {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id string, fp uint64) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					g, err := r.Get(id)
					if err != nil {
						t.Errorf("Get %s: %v", id, err)
						return
					}
					if g.Dataset().Fingerprint() != fp {
						t.Errorf("Get %s served wrong content", id)
					}
					g.Release()
				}
			}(id, fp)
		}
	}
	wg.Wait()
	st := r.Stats()
	if st.Evictions == 0 || st.Loads == 0 {
		t.Fatalf("expected eviction/reload churn, got %+v", st)
	}
	if st.MemBytes < 0 || st.Resident > 2 {
		t.Fatalf("accounting drifted %+v", st)
	}
}

// DiskBudget: overflowing the disk tier reclaims the least-recently-used
// unpinned datasets entirely; pinned ones survive, and the reclaimed ID
// can be re-uploaded.
func TestDiskBudgetReclaim(t *testing.T) {
	d1 := testData(t, 64, 4, 61)
	d2 := testData(t, 64, 4, 62)
	d3 := testData(t, 64, 4, 63)
	r, err := New(Config{Dir: t.TempDir(), DiskBudget: 2 * encodedBytes(d1)})
	if err != nil {
		t.Fatal(err)
	}
	h1, _, err := r.Put(d1)
	if err != nil {
		t.Fatal(err)
	}
	h1.Release() // oldest and unpinned → first reclaim victim
	h2, _, err := r.Put(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release() // pinned: must survive any reclaim
	h3, _, err := r.Put(d3)
	if err != nil {
		t.Fatal(err)
	}
	h3.Release()

	st := r.Stats()
	if st.Reclaims != 1 || st.Datasets != 2 {
		t.Fatalf("stats %+v, want 1 reclaim leaving 2 datasets", st)
	}
	if st.DiskBytes > st.DiskBudget {
		t.Fatalf("disk tier over budget: %+v", st)
	}
	if _, err := r.Get(h1.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reclaimed dataset Get err %v, want ErrNotFound", err)
	}
	if _, err := r.Stat(h2.ID()); err != nil {
		t.Fatalf("pinned dataset was reclaimed: %v", err)
	}
	files, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("%d files on disk after reclaim, want 2", len(files))
	}
	// Re-uploading the reclaimed content restores it (and pressures the
	// budget again).
	h1b, created, err := r.Put(testData(t, 64, 4, 61))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("re-upload of reclaimed content not treated as new")
	}
	h1b.Release()
}

// Race: concurrent Get-with-disk-reload and idempotent Put of the same
// content must not double-insert into the memory tier. The invariant
// checked after the storm: memBytes equals the sum of resident entries'
// sizes and every resident entry appears in the LRU exactly once.
func TestRaceReloadVersusReupload(t *testing.T) {
	d1 := testData(t, 64, 4, 71)
	d2 := testData(t, 64, 4, 72)
	r := newTestRegistry(t, encodedBytes(d1)+1) // one resident at a time
	h, _, err := r.Put(d1)
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	h.Release()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				// Evict d1 by touching d2, then force a reload of d1 while
				// a sibling goroutine re-uploads it.
				if g, err := r.Get(ID(d2.Fingerprint())); err == nil {
					g.Release()
				} else if nh, _, err := r.Put(testData(t, 64, 4, 72)); err == nil {
					nh.Release()
				}
				g, err := r.Get(id)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				g.Release()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				nh, _, err := r.Put(testData(t, 64, 4, 71))
				if err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				nh.Release()
			}
		}()
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	seen := map[*entry]bool{}
	for el := r.resident.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if seen[e] {
			t.Fatal("entry appears in the LRU twice (orphaned element)")
		}
		seen[e] = true
		if e.data == nil {
			t.Fatal("LRU holds a non-resident entry")
		}
		if e.elem != el {
			t.Fatal("entry's LRU element pointer is stale")
		}
		sum += e.info.Bytes
	}
	if sum != r.memBytes {
		t.Fatalf("memBytes %d, but resident entries sum to %d (accounting leak)", r.memBytes, sum)
	}
}

// WriteTo streams the on-disk bytes directly for spilled datasets too, and
// survives a concurrent delete (the pin defers file removal).
func TestWriteToFromDisk(t *testing.T) {
	d1 := testData(t, 64, 4, 81)
	d2 := testData(t, 64, 4, 82)
	r := newTestRegistry(t, encodedBytes(d1)+1)
	h1, _, err := r.Put(d1)
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()
	h2, _, err := r.Put(d2) // evicts d1 from memory
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if info, _ := r.Stat(h1.ID()); info.InMemory {
		t.Skip("d1 not evicted; budget too large for this test")
	}
	var got, want bytes.Buffer
	if err := dataset.WriteBinary(&want, d1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTo(&got, h1.ID()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("disk-streamed bytes differ from the canonical encoding")
	}
	// The stream must not have promoted the dataset into the memory tier.
	if info, _ := r.Stat(h1.ID()); info.InMemory {
		t.Fatal("WriteTo pulled the payload into the memory tier")
	}
}

// WriteTo serves verified content only. While the dataset is resident, a
// corrupted file does not leak into the download: the output is the
// canonical encoding of the upload. Once evicted, the corrupt file fails
// WriteTo before a byte is written and is dropped by the corruption rule.
func TestWriteToServesOnlyVerifiedBytes(t *testing.T) {
	d := dataset.MNISTLike(20, 5)
	var want bytes.Buffer
	if err := dataset.WriteBinary(&want, d); err != nil {
		t.Fatal(err)
	}
	r := newTestRegistry(t, encodedBytes(d)+1) // one resident at a time
	h, _, err := r.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	h.Release()
	path := filepath.Join(r.cfg.Dir, id+fileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := r.WriteTo(&got, id); err != nil {
		t.Fatalf("resident WriteTo: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resident WriteTo served %d bytes that differ from the upload's encoding (%d bytes)", got.Len(), want.Len())
	}

	evict(t, r, 6)
	if info, _ := r.Stat(id); info.InMemory {
		t.Fatal("dataset not evicted; budget too large for this test")
	}
	got.Reset()
	if err := r.WriteTo(&got, id); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("WriteTo of a corrupt evicted file: %v, want the corruption error", err)
	}
	if got.Len() != 0 {
		t.Fatalf("WriteTo wrote %d bytes of a file that failed verification", got.Len())
	}
	if _, err := r.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after the corrupt download: %v, want ErrNotFound", err)
	}
	if st := r.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v, want 1 corrupt", st)
	}
}

// evict pushes every other dataset out of the memory tier of a registry
// whose budget fits one, by putting a fresh filler dataset.
func evict(t *testing.T, r *Registry, seed uint64) {
	t.Helper()
	h, _, err := r.Put(testData(t, 64, 4, seed))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

// A corrupt file fails one Get and is dropped with its file; the
// re-upload that follows writes a fresh file, which survives eviction.
func TestReuploadRepairsCorruptFile(t *testing.T) {
	d := testData(t, 64, 4, 91)
	r := newTestRegistry(t, encodedBytes(d)+1) // one resident at a time
	h, _, err := r.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	h.Release()
	evict(t, r, 92)
	path := filepath.Join(r.cfg.Dir, id+fileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(id); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("first Get of a corrupt file: %v, want the corruption error", err)
	}
	if _, err := r.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after the corrupt load: %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file kept: %v", err)
	}
	if st := r.Stats(); st.Corrupt != 1 || st.Datasets != 1 {
		t.Fatalf("stats %+v, want 1 corrupt and the filler left", st)
	}

	h, created, err := r.Put(testData(t, 64, 4, 91))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("re-upload of a dropped dataset not stored as new")
	}
	h.Release()
	evict(t, r, 93)
	if info, _ := r.Stat(id); info.InMemory {
		t.Fatal("re-uploaded dataset not evicted; budget too large for this test")
	}
	g, err := r.Get(id)
	if err != nil {
		t.Fatalf("re-uploaded dataset does not reload: %v", err)
	}
	defer g.Release()
	if g.Dataset().Fingerprint() != d.Fingerprint() {
		t.Fatal("reloaded content differs")
	}
}

// A registry reopened over a torn file (header intact, payload cut short)
// drops it when it opens, since the header no longer accounts for the
// file's size: the ID reads ErrNotFound and no bytes are accounted for it.
func TestTornFileDropped(t *testing.T) {
	dir := t.TempDir()
	r1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := r1.Put(testData(t, 64, 4, 95))
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	h.Release()
	path := filepath.Join(dir, id+fileExt)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	r2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.DiskBytes != 0 || st.Corrupt != 1 || st.Datasets != 0 {
		t.Fatalf("stats %+v, want 0 disk bytes, 1 corrupt, no datasets", st)
	}
	if _, err := r2.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a torn file: %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn file kept: %v", err)
	}
}
