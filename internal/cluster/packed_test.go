package cluster

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// TestPackedRankingMatchesArgsortPack pins the packed sort against its
// definition on training sets with duplicate rows, where many distances tie
// exactly and the tie rule decides the ranking: the exact kernel's values
// and every ComputeShardReport list (full and top-K, at a global offset)
// must equal those built from the []int argsort packed afterwards, with
// each distance copied bit for bit. The sizes run below and above the
// sort's insertion-only cutoff.
func TestPackedRankingMatchesArgsortPack(t *testing.T) {
	const k, offset = 3, 1000
	rng := rand.New(rand.NewPCG(41, 2))
	test := dataset.MNISTLike(5, 2)
	for _, n := range []int{40, 1500} {
		base := dataset.MNISTLike(n/4, 1)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.IntN(base.N())
		}
		train := base.Subset(rows)
		stream, err := knn.NewStream(knn.UnweightedClass, k, nil, vec.L2, train, test)
		if err != nil {
			t.Fatal(err)
		}
		tps := make([]*knn.TestPoint, test.N())
		if _, err := stream.NextBatch(context.Background(), tps); err != nil {
			t.Fatal(err)
		}
		limit := 7
		full, err := ComputeShardReport(context.Background(), train, test, ShardParams{
			K: k, Metric: vec.L2, GlobalOffset: offset, GlobalN: offset + n})
		if err != nil {
			t.Fatal(err)
		}
		top, err := ComputeShardReport(context.Background(), train, test, ShardParams{
			K: k, Metric: vec.L2, Limit: limit, GlobalOffset: offset, GlobalN: offset + n})
		if err != nil {
			t.Fatal(err)
		}
		for q, tp := range tps {
			order := vec.ArgsortDistInto(nil, tp.Dist)
			want := make([]uint32, n)
			for r, i := range order {
				want[r] = core.Pack(i, tp.Correct[i])
			}
			ref := make([]float64, n)
			core.AddValues(want, n, k, n, ref)
			for i, v := range core.ExactClassSV(tp) {
				if math.Float64bits(v) != math.Float64bits(ref[i]) {
					t.Fatalf("n=%d point %d: exact value[%d] = %v, argsort+pack gives %v", n, q, i, v, ref[i])
				}
			}
			for _, sr := range []*ShardReport{full, top} {
				if len(sr.Idx[q]) != len(sr.Dist[q]) {
					t.Fatalf("n=%d point %d: %d entries, %d distances", n, q, len(sr.Idx[q]), len(sr.Dist[q]))
				}
				for r, v := range sr.Idx[q] {
					i := order[r]
					if v != core.Pack(offset+i, tp.Correct[i]) {
						t.Fatalf("n=%d point %d (%d entries): idx[%d] = %#x, want %#x", n, q, len(sr.Idx[q]), r, v, core.Pack(offset+i, tp.Correct[i]))
					}
					if math.Float64bits(sr.Dist[q][r]) != math.Float64bits(tp.Dist[i]) {
						t.Fatalf("n=%d point %d: dist[%d] = %v, want %v", n, q, r, sr.Dist[q][r], tp.Dist[i])
					}
				}
			}
			if len(full.Idx[q]) != n || len(top.Idx[q]) != limit {
				t.Fatalf("n=%d point %d: %d and %d entries, want %d and %d", n, q, len(full.Idx[q]), len(top.Idx[q]), n, limit)
			}
		}
	}
}
