package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"knnshapley"
	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// ShardParams is the decoded, validated form of wire.ShardRequest — the
// knobs ComputeShardReport needs beyond the two datasets.
type ShardParams struct {
	K            int
	Metric       vec.Metric
	Precision    knn.Precision
	Limit        int // neighbors reported per test point (0 = full shard)
	GlobalOffset int // global index of the shard's first training row
	GlobalN      int // unsharded training-set size
	BatchSize    int // distance-tile height (0 = knn stream default 64)
}

// ComputeShardReport runs one shard sub-job in process: for every test row,
// the sorted list of the Limit nearest training rows of this shard, with
// global indices and correctness flags. Distances come from the same
// norm-precompute scan every single-node valuation uses, and each row's
// distance depends only on that row and the query — so a shard's entries are
// bit-identical to the corresponding entries of an unsharded scan, and each
// list is core.Scratch.Packed at the shard's global offset, the single-node
// engine's packed sort or top-K — which is what makes the coordinator's
// merged recursion reproduce single-node values exactly. Each rank's
// distance is copied from the scan, not rebuilt from its sort key, which
// maps -0 to +0. Progress flows through the
// knnshapley context callback, so a job-managed shard reports done/total like
// any valuation.
func ComputeShardReport(ctx context.Context, train, test *dataset.Dataset, p ShardParams) (*ShardReport, error) {
	if train.IsRegression() || test.IsRegression() {
		return nil, errors.New("cluster: shard valuation applies to classification datasets")
	}
	n := train.N()
	limit := p.Limit
	if limit <= 0 || limit > n {
		limit = n
	}
	if p.GlobalOffset < 0 || p.GlobalN < p.GlobalOffset+n {
		return nil, fmt.Errorf("cluster: shard rows [%d,%d) outside global training set of %d",
			p.GlobalOffset, p.GlobalOffset+n, p.GlobalN)
	}
	pre := knn.NewPrecomp(train, p.Metric, p.Precision)
	stream, err := knn.NewStreamPre(knn.UnweightedClass, p.K, nil, p.Metric, train, test, pre)
	if err != nil {
		return nil, err
	}
	batch := p.BatchSize
	if batch <= 0 {
		batch = 64
	}
	progress := knnshapley.ProgressFrom(ctx)
	total := test.N()

	sr := &ShardReport{
		GlobalN: p.GlobalN,
		Idx:     make([][]uint32, 0, total),
		Dist:    make([][]float64, 0, total),
	}
	scratch := core.NewScratch()
	tps := make([]*knn.TestPoint, batch)
	done := 0
	for {
		b, err := stream.NextBatch(ctx, tps)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			break
		}
		for _, tp := range tps[:b] {
			idx := slices.Clone(scratch.Packed(tp, limit, p.GlobalOffset))
			dist := make([]float64, len(idx))
			for r, v := range idx {
				id, _ := UnpackIndex(v)
				dist[r] = tp.Dist[id-p.GlobalOffset]
			}
			sr.Idx = append(sr.Idx, idx)
			sr.Dist = append(sr.Dist, dist)
		}
		done += b
		if progress != nil {
			progress(done, total)
		}
	}
	return sr, nil
}
