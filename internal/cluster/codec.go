package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"knnshapley/internal/core"
)

// ShardReport is one shard sub-job's result: for every test point the shard
// processed, its sorted local neighbor list — ascending (distance, global
// index) — with each entry carrying the neighbor's distance, its global
// training index and whether its label matches the test point's. The
// coordinator k-way-merges these lists across shards into the global α
// ordering and replays the KNN-Shapley recursion over it.
//
// Entries are stored struct-of-arrays: Idx[t][r] is the packed index of test
// point t's rank-r neighbor and Dist[t][r] its distance. Indices pack the
// correctness flag into the top bit (PackIndex/UnpackIndex), which is what
// bounds GlobalN to 2³¹ — the same ceiling the dataset binary codec already
// enforces.
type ShardReport struct {
	// GlobalN is the unsharded training-set size the indices refer into.
	GlobalN int
	// TestOffset is the global index of the first reported test point.
	TestOffset int
	// Idx and Dist hold one parallel list per test point.
	Idx  [][]uint32
	Dist [][]float64
}

// correctBit marks a neighbor whose label matches the test point's. It is
// core.CorrectBit — the recurrence consumes packed report entries as-is.
const correctBit = core.CorrectBit

// PackIndex packs a global training index and its correctness flag into one
// uint32 report entry (core.Pack).
func PackIndex(idx int, correct bool) uint32 { return core.Pack(idx, correct) }

// UnpackIndex splits a packed report entry back into index and flag.
func UnpackIndex(v uint32) (idx int, correct bool) {
	return int(v &^ correctBit), v&correctBit != 0
}

// Binary layout: magic "KSRP", version, globalN, testOffset, ntest (uint32
// little-endian each), then per test point a uint32 entry count followed by
// count uint32 packed indices and count float64 distance bit patterns.
const (
	shardMagic   = uint32(0x4b535250) // "KSRP"
	shardVersion = uint32(1)
)

// EncodedBytes returns the report's exact wire size.
func (sr *ShardReport) EncodedBytes() int64 {
	n := int64(20)
	for _, l := range sr.Idx {
		n += 4 + int64(len(l))*12
	}
	return n
}

// WriteTo encodes the report in the binary wire format.
func (sr *ShardReport) WriteTo(w io.Writer) (int64, error) {
	if len(sr.Idx) != len(sr.Dist) {
		return 0, fmt.Errorf("cluster: report has %d index lists, %d distance lists", len(sr.Idx), len(sr.Dist))
	}
	cw := &countingWriter{w: bufio.NewWriter(w)}
	put32 := func(v uint32) { cw.write32(v) }
	put32(shardMagic)
	put32(shardVersion)
	put32(uint32(sr.GlobalN))
	put32(uint32(sr.TestOffset))
	put32(uint32(len(sr.Idx)))
	for t, idx := range sr.Idx {
		dist := sr.Dist[t]
		if len(idx) != len(dist) {
			return cw.n, fmt.Errorf("cluster: test point %d: %d indices, %d distances", t, len(idx), len(dist))
		}
		put32(uint32(len(idx)))
		for _, v := range idx {
			cw.write32(v)
		}
		for _, d := range dist {
			cw.write64(math.Float64bits(d))
		}
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// countingWriter tracks bytes written and the first error, so the encode
// loop stays branch-light.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
	buf [8]byte
}

func (cw *countingWriter) write32(v uint32) {
	if cw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(cw.buf[:4], v)
	m, err := cw.w.Write(cw.buf[:4])
	cw.n += int64(m)
	cw.err = err
}

func (cw *countingWriter) write64(v uint64) {
	if cw.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(cw.buf[:8], v)
	m, err := cw.w.Write(cw.buf[:8])
	cw.n += int64(m)
	cw.err = err
}

// decodeChunk bounds how many entries ReadShardReport materializes per
// io.ReadFull, so a hostile count fails fast on a short body instead of
// forcing a giant up-front allocation (the property FuzzShardReportCodec
// pins, mirroring the dataset binary codec).
const decodeChunk = 1 << 13

// ReadShardReport decodes a binary report. It never panics on malformed
// input and bounds its allocations by the bytes actually present.
func ReadShardReport(r io.Reader) (*ShardReport, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("cluster: report header: %w", err)
		}
	}
	if hdr[0] != shardMagic {
		return nil, fmt.Errorf("cluster: bad report magic %#x", hdr[0])
	}
	if hdr[1] != shardVersion {
		return nil, fmt.Errorf("cluster: unsupported report version %d", hdr[1])
	}
	sr := &ShardReport{GlobalN: int(hdr[2]), TestOffset: int(hdr[3])}
	ntest := int(hdr[4])
	if sr.GlobalN < 0 || sr.GlobalN > 1<<31 || sr.TestOffset < 0 || sr.TestOffset > 1<<31 {
		return nil, fmt.Errorf("cluster: implausible report shape n=%d offset=%d", sr.GlobalN, sr.TestOffset)
	}
	if ntest < 0 || ntest > 1<<28 {
		return nil, fmt.Errorf("cluster: implausible test count %d", ntest)
	}
	sr.Idx = make([][]uint32, 0, min(ntest, decodeChunk))
	sr.Dist = make([][]float64, 0, min(ntest, decodeChunk))
	buf := make([]byte, 8*decodeChunk)
	for t := 0; t < ntest; t++ {
		var cnt uint32
		if err := binary.Read(br, binary.LittleEndian, &cnt); err != nil {
			return nil, fmt.Errorf("cluster: test point %d count: %w", t, err)
		}
		count := int(cnt)
		if count > 1<<31 {
			return nil, fmt.Errorf("cluster: implausible entry count %d", count)
		}
		idx := make([]uint32, 0, min(count, decodeChunk))
		for len(idx) < count {
			c := min(count-len(idx), decodeChunk)
			if _, err := io.ReadFull(br, buf[:4*c]); err != nil {
				return nil, fmt.Errorf("cluster: test point %d indices: %w", t, err)
			}
			for i := 0; i < c; i++ {
				idx = append(idx, binary.LittleEndian.Uint32(buf[4*i:]))
			}
		}
		dist := make([]float64, 0, min(count, decodeChunk))
		for len(dist) < count {
			c := min(count-len(dist), decodeChunk)
			if _, err := io.ReadFull(br, buf[:8*c]); err != nil {
				return nil, fmt.Errorf("cluster: test point %d distances: %w", t, err)
			}
			for i := 0; i < c; i++ {
				dist = append(dist, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
			}
		}
		sr.Idx = append(sr.Idx, idx)
		sr.Dist = append(sr.Dist, dist)
	}
	if err := sr.validate(); err != nil {
		return nil, err
	}
	return sr, nil
}

// validate rejects reports whose indices fall outside GlobalN — the merge
// would index out of bounds otherwise.
func (sr *ShardReport) validate() error {
	for t, idx := range sr.Idx {
		for _, v := range idx {
			if i, _ := UnpackIndex(v); i >= sr.GlobalN {
				return fmt.Errorf("cluster: test point %d: index %d out of range [0,%d)", t, i, sr.GlobalN)
			}
		}
	}
	return nil
}
