// Package binio is the one little-endian binary codec of every on-disk and
// on-wire format except the job journal's record framing and the LSH index's
// tuned-metadata block: the dataset files (KNNS), the shard reports (KSRP),
// the LSH and k-d index codecs (internal/lsh, internal/kdtree) and the
// registry's index container. Writer and Reader buffer the stream. Those
// of NewWriter and NewReader keep a running CRC-32 (IEEE) for a format
// with a CRC trailer, which ends with Finish and Verify; those of
// NewPlainWriter and NewPlainReader keep none, for a format without one
// (KNNS, KSRP), which ends with Flush.
//
// Both Writer and Reader are sticky-error: after the first failure every
// later call is a no-op, so codecs can emit a field sequence without
// checking each write and collect the first error once at the end.
//
// The array forms (U64s, U32s, F64s) move whole arrays in chunks of
// chunkLen bytes, with one CRC update (if any) per chunk instead of one per
// value.
// U32sN and F64sN read an array whose length came from the stream itself,
// allocating as its bytes arrive, so a hostile length fails on a short body
// instead of forcing a giant allocation up front.
package binio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// chunkLen is the encode/decode chunk of the array forms, in bytes.
const chunkLen = 1 << 13

// errNoSum is the error of Finish and Verify on a stream that keeps no sum.
var errNoSum = errors.New("binio: no CRC kept for a trailer")

// Writer buffers and counts everything written through it, and CRC-sums it
// when made by NewWriter.
type Writer struct {
	bw    *bufio.Writer
	n     int64
	sum   bool
	crc   uint32
	err   error
	chunk [chunkLen]byte
}

// NewWriter wraps w in a buffered, CRC-summing writer, for a format that
// ends with Finish.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w), sum: true} }

// NewPlainWriter wraps w in a buffered writer that keeps no sum, for a
// format that ends with Flush.
func NewPlainWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

func (w *Writer) put(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.n += int64(n)
	if w.sum {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:n])
	}
	w.err = err
}

// U64 writes one little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.put(b[:])
}

// U32 writes one little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.put(b[:])
}

// F64 writes one float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// U64s writes vs as consecutive little-endian uint64s (no length prefix).
func (w *Writer) U64s(vs []uint64) {
	for len(vs) > 0 && w.err == nil {
		n := min(len(vs), chunkLen/8)
		b := w.chunk[:0]
		for _, v := range vs[:n] {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		w.put(b)
		vs = vs[n:]
	}
}

// U32s writes vs as consecutive little-endian uint32s (no length prefix).
func (w *Writer) U32s(vs []uint32) {
	for len(vs) > 0 && w.err == nil {
		n := min(len(vs), chunkLen/4)
		b := w.chunk[:0]
		for _, v := range vs[:n] {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		w.put(b)
		vs = vs[n:]
	}
}

// F64s writes vs as consecutive IEEE-754 bit patterns (no length prefix).
func (w *Writer) F64s(vs []float64) {
	for len(vs) > 0 && w.err == nil {
		n := min(len(vs), chunkLen/8)
		b := w.chunk[:0]
		for _, v := range vs[:n] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		w.put(b)
		vs = vs[n:]
	}
}

// String writes a uint32 length prefix followed by the bytes of s.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.put([]byte(s))
}

// N returns the number of bytes written so far, CRC trailer included.
func (w *Writer) N() int64 { return w.n }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Finish appends the running CRC-32 trailer (itself excluded from the sum),
// flushes, and returns the first error of the whole write sequence. A
// plain writer has no sum to append and fails.
func (w *Writer) Finish() error {
	if !w.sum && w.err == nil {
		w.err = errNoSum
	}
	w.U32(w.crc)
	return w.Flush()
}

// Flush flushes without a CRC trailer, for formats that carry none, and
// returns the first error of the whole write sequence.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Reader is the buffered counterpart of Writer, CRC-summing when made by
// NewReader.
type Reader struct {
	br  *bufio.Reader
	sum bool
	crc uint32
	err error
	b   []byte // grown to the largest read, at most one chunk
}

// NewReader wraps r in a buffered, CRC-summing reader, for a format that
// ends with Verify. The buffer is 64 KiB, or the bytes left in an
// *io.LimitedReader when fewer, so decoding a short header
// (dataset.ReadBinaryHeader) allocates about what it reads.
func NewReader(r io.Reader) *Reader {
	br := NewPlainReader(r)
	br.sum = true
	return br
}

// NewPlainReader is NewReader without the sum, for a format without a
// trailer.
func NewPlainReader(r io.Reader) *Reader {
	size := 1 << 16
	if lr, ok := r.(*io.LimitedReader); ok && lr.N < int64(size) {
		size = int(lr.N)
	}
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// update adds p to the running sum, if the reader keeps one.
func (r *Reader) update(p []byte) {
	if r.sum {
		r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.b = make([]byte, n)
	}
	if _, err := io.ReadFull(r.br, r.b[:n]); err != nil {
		r.err = err
		return nil
	}
	r.update(r.b[:n])
	return r.b[:n]
}

// U64 reads one little-endian uint64 (0 after the first error).
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one little-endian uint32 (0 after the first error).
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// F64 reads one float64 from its IEEE-754 bits (0 after the first error).
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// U64s fills dst from consecutive little-endian uint64s. After an error
// the rest of dst is left as it was.
func (r *Reader) U64s(dst []uint64) {
	for len(dst) > 0 {
		n := min(len(dst), chunkLen/8)
		b := r.take(8 * n)
		if b == nil {
			return
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		dst = dst[n:]
	}
}

// U32s fills dst from consecutive little-endian uint32s. After an error
// the rest of dst is left as it was.
func (r *Reader) U32s(dst []uint32) {
	for len(dst) > 0 {
		n := min(len(dst), chunkLen/4)
		b := r.take(4 * n)
		if b == nil {
			return
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		dst = dst[n:]
	}
}

// F64s fills dst from consecutive IEEE-754 bit patterns. After an error
// the rest of dst is left as it was.
func (r *Reader) F64s(dst []float64) {
	for len(dst) > 0 {
		n := min(len(dst), chunkLen/8)
		b := r.take(8 * n)
		if b == nil {
			return
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		dst = dst[n:]
	}
}

// U32sN reads n consecutive little-endian uint32s into a new slice (nil
// after an error), allocating only as the bytes arrive: see readN.
func (r *Reader) U32sN(n int) []uint32 { return readN(r, n, chunkLen/4, r.U32s) }

// F64sN reads n consecutive IEEE-754 bit patterns into a new slice (nil
// after an error), allocating only as the bytes arrive: see readN.
func (r *Reader) F64sN(n int) []float64 { return readN(r, n, chunkLen/8, r.F64s) }

// readN reads n values through fill, one chunk of per values at a time,
// each chunk allocated just before its bytes are read, and joins the chunks
// once all n have arrived. A length taken from a hostile header therefore
// fails on a short body having allocated no more than the bytes present
// plus one chunk, never n values up front.
func readN[T any](r *Reader, n, per int, fill func([]T)) []T {
	if n <= per {
		out := make([]T, n)
		if fill(out); r.err != nil {
			return nil
		}
		return out
	}
	var chunks [][]T
	for left := n; left > 0; left -= per {
		c := make([]T, min(left, per))
		if fill(c); r.err != nil {
			return nil
		}
		chunks = append(chunks, c)
	}
	return slices.Concat(chunks...)
}

// String reads a String-encoded field, rejecting length prefixes above max —
// the chunked-decode guard that keeps a hostile prefix from forcing a giant
// allocation before any content is verified.
func (r *Reader) String(max int) string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if int64(n) > int64(max) {
		r.err = fmt.Errorf("binio: string length %d exceeds limit %d", n, max)
		return ""
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r.br, p); err != nil {
		r.err = err
		return ""
	}
	r.update(p)
	return string(p)
}

// Err returns the first read error, if any.
func (r *Reader) Err() error { return r.err }

// Verify reads the 4-byte CRC trailer (excluded from the running sum) and
// compares it against everything read so far, returning the first error of
// the whole read sequence. A plain reader has no sum to compare and fails.
func (r *Reader) Verify() error {
	if r.err == nil && !r.sum {
		r.err = errNoSum
	}
	if r.err != nil {
		return r.err
	}
	want := r.crc
	var b [4]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		r.err = fmt.Errorf("binio: crc trailer: %w", err)
		return r.err
	}
	if got := binary.LittleEndian.Uint32(b[:]); got != want {
		r.err = fmt.Errorf("binio: crc mismatch: stored %08x, computed %08x", got, want)
	}
	return r.err
}
