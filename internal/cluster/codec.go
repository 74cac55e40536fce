package cluster

import (
	"fmt"
	"io"

	"knnshapley/internal/binio"
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
	// Idx and Dist hold one parallel list per test point, in test order.
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

// Binary layout: magic "KSRP", version, globalN, a test-offset word that is
// always 0, ntest (uint32 little-endian each), then per test point a uint32
// entry count followed by count uint32 packed indices and count float64
// distance bit patterns. The offset word is version 1's: every shard reports
// every test point, so it is written as 0 and rejected otherwise.
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
	for t, idx := range sr.Idx {
		if len(idx) != len(sr.Dist[t]) {
			return 0, fmt.Errorf("cluster: test point %d: %d indices, %d distances", t, len(idx), len(sr.Dist[t]))
		}
	}
	bw := binio.NewPlainWriter(w)
	bw.U32s([]uint32{shardMagic, shardVersion, uint32(sr.GlobalN), 0, uint32(len(sr.Idx))})
	for t, idx := range sr.Idx {
		bw.U32(uint32(len(idx)))
		bw.U32s(idx)
		bw.F64s(sr.Dist[t])
	}
	err := bw.Flush()
	return bw.N(), err
}

// ReadShardReport decodes a binary report. It never panics on malformed
// input, and its lists grow with the bytes actually read, so a hostile count
// fails on a short body without a giant allocation (the property
// FuzzShardReportCodec pins).
func ReadShardReport(r io.Reader) (*ShardReport, error) {
	br := binio.NewPlainReader(r)
	var hdr [5]uint32
	if br.U32s(hdr[:]); br.Err() != nil {
		return nil, fmt.Errorf("cluster: report header: %w", br.Err())
	}
	if hdr[0] != shardMagic {
		return nil, fmt.Errorf("cluster: bad report magic %#x", hdr[0])
	}
	if hdr[1] != shardVersion {
		return nil, fmt.Errorf("cluster: unsupported report version %d", hdr[1])
	}
	if hdr[3] != 0 {
		return nil, fmt.Errorf("cluster: report test offset %d, want 0", hdr[3])
	}
	sr := &ShardReport{GlobalN: int(hdr[2])}
	ntest := int(hdr[4])
	if sr.GlobalN > 1<<31 {
		return nil, fmt.Errorf("cluster: implausible report shape n=%d", sr.GlobalN)
	}
	if ntest > 1<<28 {
		return nil, fmt.Errorf("cluster: implausible test count %d", ntest)
	}
	for t := 0; t < ntest; t++ {
		count := int(br.U32())
		if count > 1<<31 {
			return nil, fmt.Errorf("cluster: implausible entry count %d", count)
		}
		idx := br.U32sN(count)
		dist := br.F64sN(count)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("cluster: test point %d: %w", t, err)
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
