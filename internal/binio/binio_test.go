package binio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
)

// sample holds one value of every field kind, each array long enough to
// cross the chunkLen boundary, NaN, -0 and -Inf among the floats.
type sample struct {
	u64s []uint64
	u32s []uint32
	f64s []float64
}

func newSample() sample {
	s := sample{
		u64s: make([]uint64, chunkLen/8+3),
		u32s: make([]uint32, chunkLen/4+5),
		f64s: make([]float64, 2*chunkLen/8+1),
	}
	for i := range s.u64s {
		s.u64s[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range s.u32s {
		s.u32s[i] = uint32(i) * 0x85ebca6b
	}
	for i := range s.f64s {
		s.f64s[i] = math.Float64frombits(uint64(i) * 0x2545f4914f6cdd1d)
	}
	s.f64s[0], s.f64s[1], s.f64s[2] = math.NaN(), math.Copysign(0, -1), math.Inf(-1)
	return s
}

func (s sample) write(w *Writer) {
	w.U64(1<<63 | 5)
	w.U32(0xdeadbeef)
	w.F64(-1.5)
	w.String("knns")
	w.U64s(s.u64s)
	w.U32s(s.u32s)
	w.F64s(s.f64s)
}

// encode writes s and ends it with Finish (CRC trailer, summing writer)
// or Flush (none, plain writer).
func (s sample) encode(t *testing.T, trailer bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, end := NewPlainWriter(&buf), (*Writer).Flush
	if trailer {
		w, end = NewWriter(&buf), (*Writer).Finish
	}
	s.write(w)
	if err := end(w); err != nil {
		t.Fatal(err)
	}
	if w.N() != int64(buf.Len()) {
		t.Fatalf("N() = %d, wrote %d bytes", w.N(), buf.Len())
	}
	return buf.Bytes()
}

// readScalars reads the fields write puts before the arrays.
func readScalars(t *testing.T, r *Reader) {
	t.Helper()
	if u64, u32, f64, str := r.U64(), r.U32(), r.F64(), r.String(4); r.Err() == nil &&
		(u64 != 1<<63|5 || u32 != 0xdeadbeef || f64 != -1.5 || str != "knns") {
		t.Fatalf("scalars read back as %#x %#x %v %q", u64, u32, f64, str)
	}
}

func requireSample(t *testing.T, s sample, u64s []uint64, u32s []uint32, f64s []float64) {
	t.Helper()
	if !slices.Equal(u64s, s.u64s) || !slices.Equal(u32s, s.u32s) || len(f64s) != len(s.f64s) {
		t.Fatal("integer arrays or float length differ after the round trip")
	}
	for i, v := range s.f64s {
		if math.Float64bits(f64s[i]) != math.Float64bits(v) {
			t.Fatalf("f64s[%d] bits %#x, want %#x", i, math.Float64bits(f64s[i]), math.Float64bits(v))
		}
	}
}

func TestRoundTripAcrossChunks(t *testing.T) {
	s := newSample()
	summed := s.encode(t, true)
	plain := s.encode(t, false)
	if !bytes.Equal(plain, summed[:len(summed)-4]) {
		t.Fatal("Flush and Finish disagree on the bytes before the trailer")
	}

	r := NewReader(bytes.NewReader(summed))
	readScalars(t, r)
	u64s, u32s, f64s := make([]uint64, len(s.u64s)), make([]uint32, len(s.u32s)), make([]float64, len(s.f64s))
	r.U64s(u64s)
	r.U32s(u32s)
	r.F64s(f64s)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	requireSample(t, s, u64s, u32s, f64s)

	// The growing reads decode the same arrays from the trailer-less form.
	r = NewPlainReader(bytes.NewReader(plain))
	readScalars(t, r)
	r.U64s(u64s)
	u32s, f64s = r.U32sN(len(s.u32s)), r.F64sN(len(s.f64s))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	requireSample(t, s, u64s, u32s, f64s)
	if empty := r.U32sN(0); empty == nil || len(empty) != 0 {
		t.Fatalf("U32sN(0) = %#v, want an empty non-nil slice", empty)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		t.Fatalf("bytes left after the last field: %v", err)
	}
	// A plain stream has no sum for a trailer.
	if err := r.Verify(); !errors.Is(err, errNoSum) {
		t.Fatalf("Verify on a plain reader: %v", err)
	}
	if err := NewPlainWriter(io.Discard).Finish(); !errors.Is(err, errNoSum) {
		t.Fatalf("Finish on a plain writer: %v", err)
	}
}

var errFull = errors.New("device full")

// fullWriter accepts limit bytes, then fails every write.
type fullWriter struct{ limit int }

func (f *fullWriter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, errFull
	}
	f.limit -= len(p)
	return len(p), nil
}

func TestStickyErrors(t *testing.T) {
	w := NewWriter(&fullWriter{limit: 100})
	newSample().write(w)
	n := w.N()
	w.U64(7)
	w.F64s([]float64{1, 2})
	if w.N() != n {
		t.Fatalf("writes after the first error counted: N %d -> %d", n, w.N())
	}
	if err := w.Finish(); !errors.Is(err, errFull) {
		t.Fatalf("Finish = %v, want the first write error", err)
	}
	if err := w.Flush(); !errors.Is(err, errFull) {
		t.Fatalf("Flush = %v, want the first write error", err)
	}

	r := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6}))
	if v := r.U32(); v != 0x04030201 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0 || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("U64 past the end = %#x, err %v", v, r.Err())
	}
	first := r.Err()
	if r.U32() != 0 || r.F64() != 0 || r.String(8) != "" || r.U32sN(2) != nil || r.F64sN(2) != nil {
		t.Fatal("a read after the first error returned data")
	}
	if r.Err() != first || r.Verify() != first {
		t.Fatalf("error changed after the first: %v, Verify %v", r.Err(), r.Verify())
	}
}

func TestVerifyCatchesFlippedByte(t *testing.T) {
	s := newSample()
	enc := s.encode(t, true)
	for pos := 0; pos < len(enc); pos += 509 {
		for _, at := range []int{pos, len(enc) - 1 - pos} {
			bad := bytes.Clone(enc)
			bad[at] ^= 0x10
			r := NewReader(bytes.NewReader(bad))
			r.U64()
			r.U32()
			r.F64()
			r.String(4)
			r.U64s(make([]uint64, len(s.u64s)))
			r.U32s(make([]uint32, len(s.u32s)))
			r.F64s(make([]float64, len(s.f64s)))
			if err := r.Verify(); err == nil {
				t.Fatalf("byte %d of %d flipped, Verify passed", at, len(enc))
			}
		}
	}
}

func TestStringLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("abcdef")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String(5); s != "" || r.Err() == nil {
		t.Fatalf("String(5) of a 6-byte string = %q, err %v", s, r.Err())
	}
	r = NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String(6); s != "abcdef" || r.Err() != nil {
		t.Fatalf("String(6) = %q, err %v", s, r.Err())
	}
}

// TestGrowingReadsBoundAllocation declares 2³⁰ values over a body of ten
// and a bit chunks: the read must fail having allocated no more than the
// bytes present plus one chunk (and 2 KiB for the index of the chunks read),
// where an up-front allocation would take 4 or 8 GiB. A first one-chunk
// read, before the measurement, sizes the reader's own buffer. The least of
// three runs is compared, since the heap counter is process-wide.
func TestGrowingReadsBoundAllocation(t *testing.T) {
	const present = 10*chunkLen + 123
	body := bytes.Repeat([]byte{0xab}, chunkLen+present)
	for name, read := range map[string]func(*Reader) bool{
		"U32sN": func(r *Reader) bool { return r.U32sN(1<<30) == nil },
		"F64sN": func(r *Reader) bool { return r.F64sN(1<<30) == nil },
	} {
		least := uint64(math.MaxUint64)
		for range 3 {
			r := NewReader(bytes.NewReader(body))
			r.U64s(make([]uint64, chunkLen/8))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			isNil := read(r)
			runtime.ReadMemStats(&after)
			if !isNil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Fatalf("%s over a short body: nil %v, err %v", name, isNil, r.Err())
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > present+chunkLen+2048 {
			t.Fatalf("%s allocated %d bytes for a %d-byte body", name, least, present)
		}
	}
}
