package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"knnshapley/internal/dataset"
	"knnshapley/internal/lsh"
	"knnshapley/internal/par"
)

// LSHConfig configures the sublinear (eps, delta)-approximation of
// Theorem 4.
type LSHConfig struct {
	// K is the KNN parameter of the utility.
	K int
	// Eps is the target max-error of the Shapley approximation.
	Eps float64
	// Delta is the allowed failure probability of the underlying
	// K*-nearest-neighbor retrieval.
	Delta float64
	// Alpha scales the number of hash bits per table (Section 6.1 tunes it
	// per dataset; 1 is a sensible default).
	Alpha float64
	// MaxTables caps the table count on low-contrast data (0 = 512).
	MaxTables int
	// Seed drives index construction and tuning samples.
	Seed uint64
	// Workers bounds the test-point fan-out and the index build's
	// table-hashing goroutines (0 = GOMAXPROCS).
	Workers int
}

func (c LSHConfig) withDefaults() LSHConfig {
	if c.Alpha <= 0 {
		c.Alpha = 1
	}
	if c.MaxTables <= 0 {
		c.MaxTables = 512
	}
	return c
}

// LSHValuer computes approximate Shapley values for unweighted KNN
// classification by retrieving only the K* = max{K, ⌈1/Eps⌉} nearest
// neighbors per test point from a p-stable LSH index (Theorems 2–4), instead
// of sorting the full training set. Build once, then value any number of
// (possibly streaming) test points.
type LSHValuer struct {
	cfg   LSHConfig
	train *dataset.Dataset
	index *lsh.Index
	tuned lsh.Tuned
	kStar int
}

// NewLSHValuer tunes LSH parameters on the training set and builds the
// index.
func NewLSHValuer(train *dataset.Dataset, cfg LSHConfig) (*LSHValuer, error) {
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
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x94d049bb133111eb))
	tuned := lsh.Tune(train.X, train.X, KStar(cfg.K, cfg.Eps), cfg.Delta, cfg.Alpha, cfg.MaxTables, cfg.Seed, rng)
	index, err := lsh.Build(train.X, tuned.Params, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return newLSHValuer(train, cfg, index, tuned), nil
}

// newLSHValuer attaches a built or decoded index to train. Tuning and
// LSHIndexKey use the uncapped K*, so builds and keys are unchanged, but
// the retrieval depth is capped at N: a deeper query returns the same
// candidates, and the heap behind it allocates one slot per unit of depth.
func newLSHValuer(train *dataset.Dataset, cfg LSHConfig, index *lsh.Index, tuned lsh.Tuned) *LSHValuer {
	return &LSHValuer{cfg: cfg, train: train, index: index, tuned: tuned, kStar: min(KStar(cfg.K, cfg.Eps), train.N())}
}

// Tuned reports the selected LSH parameters and estimated contrast.
func (v *LSHValuer) Tuned() lsh.Tuned { return v.tuned }

// KStar returns the retrieval depth max{K, ⌈1/Eps⌉}, capped at N.
func (v *LSHValuer) KStar() int { return v.kStar }

// ValueOne returns the approximate Shapley values for a single test query:
// the K* retrieved neighbors carry the Theorem 2 recursion, everyone else
// gets zero.
func (v *LSHValuer) ValueOne(q []float64, label int) []float64 {
	sv := make([]float64, v.train.N())
	v.valueInto(labeledQuery{label: label, ids: v.index.Query(q, v.kStar).IDs}, NewScratch(), sv)
	return sv
}

// valueInto runs the Theorem 2 recursion over a query's retrieved neighbors
// into a zeroed dst.
func (v *LSHValuer) valueInto(item labeledQuery, s *Scratch, dst []float64) {
	AddValues(s.packedLabels(item.ids, v.train.Labels, item.label), v.train.N(), v.cfg.K, v.kStar, dst)
}

// ValueEngine averages ValueOne over a test set (Eq. 8 / Theorem 4),
// streaming the queries through an Engine configured by ec: an lshSource
// retrieves each batch's neighbors, and the kernel values each test point
// over them. A canceled ctx aborts within one engine batch.
func (v *LSHValuer) ValueEngine(ctx context.Context, test *dataset.Dataset, ec EngineConfig) ([]float64, error) {
	if test.IsRegression() {
		return nil, fmt.Errorf("core: classification test set required")
	}
	if test.Dim() != v.train.Dim() {
		return nil, fmt.Errorf("core: test dim %d != train dim %d", test.Dim(), v.train.Dim())
	}
	if test.N() == 0 {
		return make([]float64, v.train.N()), nil
	}
	if ec.Workers == 0 {
		ec.Workers = v.cfg.Workers
	}
	src := &lshSource{querySource: querySource{test: test}, v: v, parts: ec.NumWorkers()}
	eng := NewEngine[labeledQuery](ec)
	return eng.Run(ctx, src, queryKernel{n: v.train.N(), value: v.valueInto})
}

// lshSource is a querySource that retrieves every batch's neighbors before
// handing the batch out. It splits the batch into up to parts contiguous
// runs, one goroutine each (the Engine's workers wait meanwhile), and each
// run queries the index lsh.GroupSize test points at a time.
type lshSource struct {
	querySource
	v     *LSHValuer
	parts int
	res   []lsh.Result
}

// NextBatch implements Source.
func (s *lshSource) NextBatch(ctx context.Context, dst []labeledQuery) (int, error) {
	nb, err := s.querySource.NextBatch(ctx, dst)
	if nb == 0 || err != nil {
		return nb, err
	}
	if len(s.res) < nb {
		s.res = make([]lsh.Result, len(dst))
	}
	qs := s.test.X[s.pos-nb : s.pos]
	par.For(nb, s.parts, func(lo, hi int) {
		s.v.index.QueryGroup(s.res[lo:hi], qs[lo:hi], s.v.kStar, s.v.index.Tables())
	})
	for i := range dst[:nb] {
		dst[i].ids = s.res[i].IDs
	}
	return nb, nil
}
