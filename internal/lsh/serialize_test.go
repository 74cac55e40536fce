package lsh

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"knnshapley/internal/dataset"
)

func TestIndexRoundTrip(t *testing.T) {
	d := dataset.GistLike(800, 3)
	idx, err := Build(d.X, Params{M: 6, L: 10, R: 1.5, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(bytes.NewReader(buf.Bytes()), d.X)
	if err != nil {
		t.Fatal(err)
	}
	if back.Params() != idx.Params() || back.Tables() != idx.Tables() {
		t.Fatalf("params changed: %+v vs %+v", back.Params(), idx.Params())
	}
	// Queries must return identical results.
	queries := dataset.GistLike(20, 4)
	for _, q := range queries.X {
		a := idx.Query(q, 7)
		b := back.Query(q, 7)
		if len(a.IDs) != len(b.IDs) || a.Candidates != b.Candidates {
			t.Fatalf("result shape changed: %+v vs %+v", a, b)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] || a.Dists[i] != b.Dists[i] {
				t.Fatalf("query diverged after reload: %v vs %v", a.IDs, b.IDs)
			}
		}
	}
}

// Equal indexes must encode to equal bytes, whatever the worker count of
// the builds: the store's artifacts are then reproducible.
func TestWriteToDeterministic(t *testing.T) {
	d := dataset.GistLike(301, 3)
	p := Params{M: 5, L: 9, R: 1.5, Seed: 11}
	var enc [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		idx, err := Build(d.X, p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.WriteTo(&enc[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
		t.Fatal("two builds of one index encoded differently")
	}
}

func TestReadIndexValidation(t *testing.T) {
	d := dataset.GistLike(50, 5)
	idx, err := Build(d.X, Params{M: 2, L: 2, R: 1, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadIndex(bytes.NewReader(raw[:10]), d.X); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := ReadIndex(bytes.NewReader(raw), d.X[:10]); err == nil {
		t.Error("wrong row count accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := ReadIndex(bytes.NewReader(bad), d.X); err == nil {
		t.Error("bad magic accepted")
	}
	short := dataset.GistLike(50, 5)
	for i := range short.X {
		short.X[i] = short.X[i][:4]
	}
	if _, err := ReadIndex(bytes.NewReader(raw), short.X); err == nil {
		t.Error("wrong dimension accepted")
	}
	// A flipped payload byte must fail the CRC even when it decodes to
	// in-range values.
	for _, off := range []int{70, len(raw) / 2, len(raw) - 8} {
		corrupt := append([]byte(nil), raw...)
		corrupt[off] ^= 0x01
		if _, err := ReadIndex(bytes.NewReader(corrupt), d.X); err == nil {
			t.Errorf("corrupt byte at %d accepted", off)
		}
	}
	// An older codec version is refused outright, even with a valid CRC.
	old := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(old[8:], 2)
	binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[:len(old)-4]))
	if _, err := ReadIndex(bytes.NewReader(old), d.X); err == nil {
		t.Error("version 2 payload accepted")
	}

	// Payloads that break a table invariant but carry a valid CRC: each is
	// a decoded copy of idx with table 0 mangled, re-encoded by WriteTo.
	tb := &idx.tables[0]
	multi := -1 // a bucket holding at least two ids
	for b := range tb.keys {
		if tb.starts[b+1]-tb.starts[b] >= 2 {
			multi = b
			break
		}
	}
	if len(tb.keys) < 3 || multi < 0 {
		t.Fatalf("fixture too uniform: %d buckets, multi-id bucket %d", len(tb.keys), multi)
	}
	for _, c := range []struct {
		name   string
		mangle func(tb *table)
	}{
		{"first bucket all id 0, second bucket reusing the first key", func(tb *table) {
			for p := tb.starts[0]; p < tb.starts[1]; p++ {
				tb.ids[p] = 0
			}
			tb.keys[1] = tb.keys[0]
		}},
		{"duplicate id", func(tb *table) { tb.ids[1] = tb.ids[0] }},
		{"id out of range", func(tb *table) { tb.ids[len(tb.ids)-1] = uint32(len(tb.ids)) }},
		{"keys descending", func(tb *table) { tb.keys[1], tb.keys[2] = tb.keys[2], tb.keys[1] }},
		{"ids descending within a bucket", func(tb *table) {
			p := tb.starts[multi]
			tb.ids[p], tb.ids[p+1] = tb.ids[p+1], tb.ids[p]
		}},
		{"offsets not starting at 0", func(tb *table) { tb.starts[0] = 1 }},
		{"offsets not ending at N", func(tb *table) { tb.starts[len(tb.keys)]-- }},
		{"empty bucket", func(tb *table) { tb.starts[1] = tb.starts[0] }},
		{"offsets decreasing", func(tb *table) { tb.starts[1] = tb.starts[2] + 1 }},
		{"no buckets", func(tb *table) { tb.keys, tb.starts = nil, tb.starts[:1] }},
	} {
		back, err := ReadIndex(bytes.NewReader(raw), d.X)
		if err != nil {
			t.Fatal(err)
		}
		c.mangle(&back.tables[0])
		var buf bytes.Buffer
		if _, err := back.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), d.X); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzReadIndex feeds arbitrary bytes to the decoder: it must never panic,
// and anything it accepts must answer queries without panicking.
func FuzzReadIndex(f *testing.F) {
	d := dataset.GistLike(40, 11)
	idx, err := Build(d.X, Params{M: 2, L: 2, R: 1, Seed: 3}, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:20])
	f.Add(raw[:len(raw)-4])
	mangled := append([]byte(nil), raw...)
	mangled[90] ^= 0xff
	f.Add(mangled)
	f.Fuzz(func(t *testing.T, b []byte) {
		back, err := ReadIndex(bytes.NewReader(b), d.X)
		if err != nil {
			return
		}
		res := back.Query(d.X[0], 5)
		for _, id := range res.IDs {
			if id < 0 || id >= len(d.X) {
				t.Fatalf("decoded index returned id %d outside [0,%d)", id, len(d.X))
			}
		}
	})
}
