package lsh

import (
	"fmt"
	"io"
	"math"

	"knnshapley/internal/binio"
)

// Index serialization: building an index over millions of points costs
// minutes (Figure 6), so a data market wants to build once and reload. The
// caller re-supplies the data vectors on load (they are the dataset's own
// storage, not the index's).
//
// Version 3 writes each table's in-memory arrays as they are, all fields
// little-endian:
//
//	header   magic, version, M, L, R (float64 bits), seed, N, dim  (8 × u64)
//	per table, in table order:
//	  proj   M·dim × f64   Gaussian projections, row-major
//	  offset M × f64
//	  U      u64           number of buckets, 1 ≤ U ≤ N
//	  keys   U × u64       bucket signatures, strictly ascending
//	  starts (U+1) × u32   bucket b is ids[starts[b]:starts[b+1]]
//	  ids    N × u32       a permutation of [0, N), ascending per bucket
//	trailer  CRC-32 (IEEE) of everything before it
//
// A reload is therefore a read plus a CRC plus one O(N) validation pass
// per table (and the O(buckets) lookup directory rebuilt from the keys),
// with no per-bucket allocation, and equal indexes encode to equal bytes. There is no reader for older versions: they fail to decode,
// and the Valuer rebuilds and replaces them.

const (
	indexMagic   = uint32(0x4c534849) // "LSHI"
	indexVersion = 3

	// maxDecodeBits / maxDecodeTables bound the decoded layout before any
	// allocation. Tune produces m = α·logN/log(1/f_h) hash bits (tens) and
	// caps l at 512 tables; the limits are generous multiples of anything it
	// can emit, small enough that a hostile header cannot force huge
	// allocations.
	maxDecodeBits   = 1 << 12
	maxDecodeTables = 1 << 16
)

// WriteTo serializes the index (excluding the data vectors) to w.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.U64s([]uint64{
		uint64(indexMagic), indexVersion,
		uint64(idx.params.M), uint64(idx.params.L),
		math.Float64bits(idx.params.R), idx.params.Seed,
		uint64(len(idx.data)), uint64(len(idx.data[0])),
	})
	for t := range idx.tables {
		tb := &idx.tables[t]
		bw.F64s(tb.proj)
		bw.F64s(tb.offset)
		bw.U64(uint64(len(tb.keys)))
		bw.U64s(tb.keys)
		bw.U32s(tb.starts)
		bw.U32s(tb.ids)
	}
	err := bw.Finish()
	return bw.N(), err
}

// ReadIndex deserializes an index written by WriteTo, reattaching the data
// vectors (which must be the same rows, in the same order, as at build
// time). The decode is hardened against arbitrary bytes: table and bit
// counts are capped before allocation, each table's arrays are checked
// against the layout invariants above (so every point sits in exactly one
// bucket per table), and the CRC-32 trailer must match what was read.
func ReadIndex(r io.Reader, data [][]float64) (*Index, error) {
	br := binio.NewReader(r)
	var hdr [8]uint64
	br.U64s(hdr[:])
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("lsh: header: %w", err)
	}
	if uint32(hdr[0]) != indexMagic {
		return nil, fmt.Errorf("lsh: bad magic %#x", hdr[0])
	}
	if hdr[1] != indexVersion {
		return nil, fmt.Errorf("lsh: unsupported version %d", hdr[1])
	}
	if hdr[2] > maxDecodeBits || hdr[3] > maxDecodeTables {
		return nil, fmt.Errorf("lsh: implausible layout: %d hash bits × %d tables", hdr[2], hdr[3])
	}
	params := Params{M: int(hdr[2]), L: int(hdr[3]), R: math.Float64frombits(hdr[4]), Seed: hdr[5]}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if hdr[6] != uint64(len(data)) {
		return nil, fmt.Errorf("lsh: index built over %d rows, got %d", hdr[6], len(data))
	}
	if err := checkData(data); err != nil {
		return nil, err
	}
	n, dim := len(data), len(data[0])
	if hdr[7] != uint64(dim) {
		return nil, fmt.Errorf("lsh: index built over dim %d, got %d", hdr[7], dim)
	}
	idx := newIndex(params, data)
	seen := make([]uint32, n)
	for t := range idx.tables {
		tb := &idx.tables[t]
		tb.proj = make([]float64, params.M*dim)
		tb.offset = make([]float64, params.M)
		br.F64s(tb.proj)
		br.F64s(tb.offset)
		u := br.U64()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("lsh: table %d: %w", t, err)
		}
		// Every bucket holds at least one point, which bounds the
		// allocation below by N.
		if u == 0 || u > uint64(n) {
			return nil, fmt.Errorf("lsh: table %d: implausible bucket count %d for %d points", t, u, n)
		}
		tb.keys = make([]uint64, u)
		tb.starts = make([]uint32, u+1)
		tb.ids = make([]uint32, n)
		br.U64s(tb.keys)
		br.U32s(tb.starts)
		br.U32s(tb.ids)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("lsh: table %d buckets: %w", t, err)
		}
		if err := tb.check(seen, uint32(t+1)); err != nil {
			return nil, fmt.Errorf("lsh: table %d: %w", t, err)
		}
		tb.fillSlots()
	}
	if err := br.Verify(); err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	return idx, nil
}

// check verifies the CSR invariants of a decoded table: keys strictly
// ascending, starts running from 0 to N through non-empty buckets, and ids
// a permutation of [0, N) ascending within each bucket. seen is N-length
// scratch shared across tables; stamp marks this table's visits in it and
// must differ from every earlier table's.
func (tb *table) check(seen []uint32, stamp uint32) error {
	n := uint32(len(tb.ids))
	for b := 1; b < len(tb.keys); b++ {
		if tb.keys[b] <= tb.keys[b-1] {
			return fmt.Errorf("bucket keys not strictly ascending at bucket %d", b)
		}
	}
	if tb.starts[0] != 0 || tb.starts[len(tb.keys)] != n {
		return fmt.Errorf("bucket offsets span [%d, %d), want [0, %d)", tb.starts[0], tb.starts[len(tb.keys)], n)
	}
	for b := range tb.keys {
		if tb.starts[b+1] <= tb.starts[b] {
			return fmt.Errorf("bucket %d offsets [%d, %d) not increasing", b, tb.starts[b], tb.starts[b+1])
		}
	}
	for b := range tb.keys {
		bucket := tb.ids[tb.starts[b]:tb.starts[b+1]]
		for p, id := range bucket {
			if id >= n {
				return fmt.Errorf("id %d outside [0,%d)", id, n)
			}
			if seen[id] == stamp {
				return fmt.Errorf("id %d hashed twice", id)
			}
			seen[id] = stamp
			if p > 0 && id < bucket[p-1] {
				return fmt.Errorf("ids not ascending in bucket %d", b)
			}
		}
	}
	return nil
}
