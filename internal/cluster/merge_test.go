package cluster

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"knnshapley"
	"knnshapley/internal/dataset"
	"knnshapley/internal/vec"
)

// buildReports partitions dist/correct by global index ranges into per-shard
// ShardReports, each sorted shard-locally by (DistKeyBits, global index) and
// truncated to limit — exactly what ComputeShardReport emits.
func buildReports(dist []float64, correct []bool, cuts []int, limit int) []*ShardReport {
	n := len(dist)
	reports := make([]*ShardReport, 0, len(cuts)+1)
	start := 0
	bounds := append(append([]int(nil), cuts...), n)
	for _, end := range bounds {
		order := make([]int, end-start)
		for i := range order {
			order[i] = start + i
		}
		sort.Slice(order, func(a, b int) bool {
			ka, kb := vec.DistKeyBits(dist[order[a]]), vec.DistKeyBits(dist[order[b]])
			if ka != kb {
				return ka < kb
			}
			return order[a] < order[b]
		})
		l := limit
		if l <= 0 || l > len(order) {
			l = len(order)
		}
		idx := make([]uint32, l)
		ds := make([]float64, l)
		for r, gi := range order[:l] {
			idx[r] = PackIndex(gi, correct[gi])
			ds[r] = dist[gi]
		}
		reports = append(reports, &ShardReport{GlobalN: n, Idx: [][]uint32{idx}, Dist: [][]float64{ds}})
		start = end
	}
	return reports
}

// trickyDists draws distances with deliberate ties, duplicates, -0 and +0 so
// the merge's total order is exercised where float comparison alone would be
// ambiguous.
func trickyDists(rng *rand.Rand, n int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, 2.5, 2.5, 7, rng.Float64(), rng.Float64()}
	d := make([]float64, n)
	for i := range d {
		d[i] = pool[rng.Intn(len(pool))]
	}
	return d
}

// randomCuts picks a sorted set of cut points splitting [0,n) into parts
// non-empty ranges.
func randomCuts(rng *rand.Rand, n, parts int) []int {
	if parts <= 1 {
		return nil
	}
	perm := rng.Perm(n - 1)
	cuts := make([]int, parts-1)
	for i := range cuts {
		cuts[i] = perm[i] + 1
	}
	sort.Ints(cuts)
	return cuts
}

// TestMergeOrderMatchesGlobalArgsort is the ordering property: k-way merging
// shard-local sorted lists reproduces the single-node argsort order for any
// partition, ties, -0 and duplicate distances included.
func TestMergeOrderMatchesGlobalArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		dist := trickyDists(rng, n)
		correct := make([]bool, n)
		for i := range correct {
			correct[i] = rng.Intn(2) == 0
		}
		parts := 1 + rng.Intn(min(n, 5))
		reports := buildReports(dist, correct, randomCuts(rng, n, parts), 0)

		req := &Request{
			Train: dataset.FromFlat(make([]float64, n), n, 1),
			Test:  dataset.FromFlat(make([]float64, 1), 1, 1),
			K:     1 + rng.Intn(3), Method: "exact",
		}
		req.Train.Labels = make([]int, n)
		req.Test.Labels = []int{0}
		req.Train.Classes, req.Test.Classes = 2, 2

		mergedOrder, mergedCorrect := mergedRanking(t, req, reports, n)
		want := vec.ArgsortDistInto(nil, dist)
		for i := range want {
			if mergedOrder[i] != want[i] {
				t.Fatalf("trial %d rank %d: merged %d, argsort %d\ndist=%v\nmerged=%v\nwant=%v",
					trial, i, mergedOrder[i], want[i], dist, mergedOrder, want)
			}
			if mergedCorrect[i] != correct[want[i]] {
				t.Fatalf("trial %d rank %d: correctness flag mismatch", trial, i)
			}
		}
	}
}

// mergedRanking extracts the merged global ordering by running the
// coordinator's merge with an instrumented recursion: instead of reimplementing
// the k-way scan, it reuses merge and recovers the order from per-rank
// one-hot value differences. Simpler: re-run the same scan merge performs.
func mergedRanking(t *testing.T, req *Request, reports []*ShardReport, n int) ([]int, []bool) {
	t.Helper()
	heads := make([]int, len(reports))
	total := 0
	for _, sr := range reports {
		total += len(sr.Idx[0])
	}
	order := make([]int, 0, total)
	flags := make([]bool, 0, total)
	for out := 0; out < total; out++ {
		best := -1
		var bestKey uint64
		bestIdx := 0
		for ri, sr := range reports {
			h := heads[ri]
			if h >= len(sr.Idx[0]) {
				continue
			}
			key := vec.DistKeyBits(sr.Dist[0][h])
			idx, _ := UnpackIndex(sr.Idx[0][h])
			if best == -1 || key < bestKey || (key == bestKey && idx < bestIdx) {
				best, bestKey, bestIdx = ri, key, idx
			}
		}
		sr := reports[best]
		idx, ok := UnpackIndex(sr.Idx[0][heads[best]])
		order = append(order, idx)
		flags = append(flags, ok)
		heads[best]++
	}
	return order, flags
}

// TestMergeValuesMatchSingleNode is the end-to-end equivalence property on
// real shard computations: slice a dataset into shards, compute each shard's
// report in process, merge — and require bit-identical values to the local
// Valuer for both methods, across shard counts.
func TestMergeValuesMatchSingleNode(t *testing.T) {
	train := knnshapley.SynthMNIST(97, 7)
	test := knnshapley.SynthMNIST(13, 8)
	v, err := knnshapley.New(train, knnshapley.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	localExact, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.12
	localTrunc, err := v.Truncated(context.Background(), test, eps)
	if err != nil {
		t.Fatal(err)
	}

	c := New(Config{Peers: ringPeers(7), HealthInterval: -1})
	defer c.Close()
	for _, method := range []string{"exact", "truncated"} {
		want := localExact.Values
		if method == "truncated" {
			want = localTrunc.Values
		}
		for _, parts := range []int{1, 2, 3, 7} {
			req := &Request{Train: train, Test: test, Method: method, Eps: eps, K: 5}
			if err := validateRequest(req); err != nil {
				t.Fatal(err)
			}
			shards, err := c.plan(req, parts)
			if err != nil {
				t.Fatal(err)
			}
			reports := make([]*ShardReport, len(shards))
			for i, sh := range shards {
				p := ShardParams{
					K: req.K, Limit: sh.req.Limit,
					GlobalOffset: sh.req.GlobalOffset, GlobalN: sh.req.GlobalN,
				}
				reports[i], err = ComputeShardReport(context.Background(), sh.train, sh.test, p)
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := c.merge(req, reports)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%d shards: %d values, want %d", method, parts, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%d shards: value[%d] = %v (bits %#x), single-node %v (bits %#x)",
						method, parts, i, got[i], math.Float64bits(got[i]),
						want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestMergeRejectsIncompleteExact pins that a lost list is an error, not a
// silently wrong answer.
func TestMergeRejectsIncompleteExact(t *testing.T) {
	dist := []float64{3, 1, 2, 0}
	correct := []bool{true, false, true, false}
	reports := buildReports(dist, correct, []int{2}, 0)
	reports[1].Idx[0] = reports[1].Idx[0][:1] // drop an entry
	reports[1].Dist[0] = reports[1].Dist[0][:1]
	req := &Request{
		Train: dataset.FromFlat(make([]float64, 4), 4, 1),
		Test:  dataset.FromFlat(make([]float64, 1), 1, 1),
		K:     2, Method: "exact",
	}
	req.Train.Labels = make([]int, 4)
	req.Test.Labels = []int{0}
	req.Train.Classes, req.Test.Classes = 2, 2
	if _, err := (&Coordinator{}).merge(req, reports); err == nil {
		t.Fatal("merge accepted an exact report set missing entries")
	}
}
