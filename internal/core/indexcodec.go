package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"knnshapley/internal/dataset"
	"knnshapley/internal/kdtree"
	"knnshapley/internal/lsh"
)

// Valuer-level index persistence: the registry's index store keeps the
// serialized LSH tables / k-d tree beside their dataset, and a session-cache
// miss reloads the bytes instead of repeating the build (the expensive part:
// tuning samples, hashing every point into every table, the per-level sort).
// The payloads here are what the store's containers carry.
//
// The LSH payload prepends a fixed-size tuned-metadata block (the contrast
// estimate and derived exponents that Tune would otherwise re-sample) to the
// lsh codec's own bytes; the kd payload is exactly the kdtree codec's bytes.
// Both kinds are keyed canonically so every session deriving the same
// effective build inputs shares one artifact.

// tunedMetaLen is the fixed size of the LSH tuned-metadata block: five
// float64 fields plus a CRC-32 of them. Fixed-size on purpose — it is read
// with io.ReadFull directly so the reader consumes exactly these bytes
// before handing the rest of the stream to lsh.ReadIndex.
const tunedMetaLen = 5*8 + 4

// LSHIndexKey returns the canonical parameter key of the LSH index this
// config builds. Everything that feeds lsh.Tune and lsh.Build is covered —
// K and Eps only through K* (configs with equal K* share one index), plus
// delta/alpha/maxTables/seed — so equal keys mean byte-identical builds.
func (c LSHConfig) LSHIndexKey() string {
	c = c.withDefaults()
	return fmt.Sprintf("kstar=%d delta=%g alpha=%g maxtables=%d seed=%d",
		KStar(c.K, c.Eps), c.Delta, c.Alpha, c.MaxTables, c.Seed)
}

// KDIndexKey returns the canonical parameter key of a k-d tree index. The
// tree depends only on the data layout and leaf size — not on K or eps — so
// one persisted tree serves every (K, eps) request against its dataset.
func KDIndexKey(leafSize int) string {
	if leafSize <= 0 {
		leafSize = kdtree.DefaultLeafSize
	}
	return fmt.Sprintf("leaf=%d", leafSize)
}

// EncodeIndex serializes the valuer's index and tuned metadata to w.
func (v *LSHValuer) EncodeIndex(w io.Writer) error {
	var meta [tunedMetaLen]byte
	for i, f := range []float64{v.tuned.Contrast.DMean, v.tuned.Contrast.DK, v.tuned.Contrast.CK, v.tuned.RRel, v.tuned.G} {
		binary.LittleEndian.PutUint64(meta[i*8:], math.Float64bits(f))
	}
	binary.LittleEndian.PutUint32(meta[5*8:], crc32.ChecksumIEEE(meta[:5*8]))
	if _, err := w.Write(meta[:]); err != nil {
		return err
	}
	_, err := v.index.WriteTo(w)
	return err
}

// NewLSHValuerFromEncoded reconstructs an LSHValuer from bytes written by
// EncodeIndex, reattaching the training set (which must be the same rows,
// in the same order, as at build time — the decoder verifies shape and the
// CRC trailers catch content drift). cfg must describe the same build as
// the encoding session's; callers enforce that by keying storage on
// LSHIndexKey.
func NewLSHValuerFromEncoded(r io.Reader, train *dataset.Dataset, cfg LSHConfig) (*LSHValuer, error) {
	cfg = cfg.withDefaults()
	if cfg.K <= 0 || cfg.Eps <= 0 || cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("core: invalid LSH config %+v", cfg)
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.IsRegression() {
		return nil, fmt.Errorf("core: the LSH approximation applies to classification only (Section 3.2)")
	}
	var meta [tunedMetaLen]byte
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, fmt.Errorf("core: lsh index meta: %w", err)
	}
	if got := binary.LittleEndian.Uint32(meta[5*8:]); got != crc32.ChecksumIEEE(meta[:5*8]) {
		return nil, fmt.Errorf("core: lsh index meta: crc mismatch")
	}
	fields := make([]float64, 5)
	for i := range fields {
		fields[i] = math.Float64frombits(binary.LittleEndian.Uint64(meta[i*8:]))
	}
	index, err := lsh.ReadIndex(r, train.X)
	if err != nil {
		return nil, err
	}
	tuned := lsh.Tuned{
		Params:   index.Params(),
		Contrast: lsh.Contrast{DMean: fields[0], DK: fields[1], CK: fields[2]},
		RRel:     fields[3],
		G:        fields[4],
	}
	return newLSHValuer(train, cfg, index, tuned), nil
}

// EncodeIndex serializes the valuer's k-d tree to w.
func (v *KDValuer) EncodeIndex(w io.Writer) error {
	_, err := v.tree.WriteTo(w)
	return err
}

// NewKDValuerFromEncoded reconstructs a KDValuer from bytes written by
// EncodeIndex, reattaching the training set. The persisted tree is
// (K, eps)-independent, so any valid pair may be supplied.
func NewKDValuerFromEncoded(r io.Reader, train *dataset.Dataset, k int, eps float64) (*KDValuer, error) {
	if k <= 0 || eps <= 0 {
		return nil, fmt.Errorf("core: invalid kd-valuer config k=%d eps=%v", k, eps)
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.IsRegression() {
		return nil, fmt.Errorf("core: the truncated approximation applies to classification")
	}
	tree, err := kdtree.ReadIndex(r, train.X)
	if err != nil {
		return nil, err
	}
	return newKDValuer(train, k, eps, tree), nil
}
