package main

import (
	"context"

	"knnshapley/internal/core"
	"knnshapley/internal/dataset"
	"knnshapley/internal/kheap"
	"knnshapley/internal/knn"
	"knnshapley/internal/vec"
)

// libReplay replays one valuation of the library path single-threaded, as
// the sequence of public calls the engine makes: Stream.NextBatch (the
// distance scan), DistSorter.ArgsortInto or Heap.TopKInto, the Theorem 1/2
// recurrence over the ranking, then the ordered reduce. The reduce runs in
// stream order exactly as core.Engine does, so the values are bit-identical
// to Valuer.Exact / Valuer.Truncated on the same inputs. The buffers are
// reused across calls.
type libReplay struct {
	sorter  vec.DistSorter
	heap    *kheap.Heap
	order   []int
	correct []bool
	tps     []*knn.TestPoint
	results [][]float64
}

// value replays method ("exact" or "truncated" at eps) over test.
func (l *libReplay) value(tr *tracer, train, test *dataset.Dataset, pre *knn.Precomp, k int, method string, eps float64) ([]float64, error) {
	stream, err := knn.NewStreamPre(knn.UnweightedClass, k, nil, vec.L2, train, test, pre)
	if err != nil {
		return nil, err
	}
	if l.tps == nil {
		l.tps = make([]*knn.TestPoint, core.DefaultBatchSize)
		l.results = make([][]float64, core.DefaultBatchSize)
	}
	n := train.N()
	acc := make([]float64, n)
	count := 0
	for {
		sp := tr.begin("knn.scan")
		nb, err := stream.NextBatch(context.Background(), l.tps)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if nb == 0 {
			break
		}
		for i, tp := range l.tps[:nb] {
			dst := l.dst(i, n)
			if method == "exact" || core.KStar(k, eps) >= n {
				sp = tr.begin("vec.argsort")
				l.order = l.sorter.ArgsortInto(l.order, tp.Dist)
			} else {
				kStar := core.KStar(k, eps)
				if l.heap == nil || l.heap.K() != kStar {
					l.heap = kheap.New(kStar)
				}
				sp = tr.begin("kheap.topk")
				l.order = l.heap.TopKInto(l.order, tp.Dist)
			}
			tr.end(sp)
			sp = tr.begin("core.recurrence")
			correct := l.rankCorrect(l.order, tp.Correct)
			if method == "exact" {
				core.ExactClassFromRankingInto(l.order, correct, k, dst)
			} else {
				core.TruncatedFromRankingInto(l.order, correct, n, k, eps, dst)
			}
			tr.end(sp)
		}
		l.reduce(tr, acc, nb)
		count += nb
	}
	return l.average(tr, acc, count), nil
}

// annValue replays an LSH or k-d valuation: per test point, retrieve the K*
// neighbors with query (timed as span name), run the Theorem 2 recurrence
// over them, and reduce in test order — the engine's queryKernel sequence.
// A non-nil each sees every test point's neighbors and values before the
// reduce.
func (l *libReplay) annValue(tr *tracer, name string, train, test *dataset.Dataset, k int, eps float64,
	query func(q []float64) []int, each func(i int, ids []int, values []float64)) []float64 {
	if l.results == nil {
		l.results = make([][]float64, core.DefaultBatchSize)
	}
	n := train.N()
	acc := make([]float64, n)
	for start := 0; start < test.N(); start += core.DefaultBatchSize {
		nb := min(core.DefaultBatchSize, test.N()-start)
		for i := 0; i < nb; i++ {
			dst := l.dst(i, n)
			sp := tr.begin(name)
			ids := query(test.X[start+i])
			tr.end(sp)
			sp = tr.begin("core.recurrence")
			label := test.Labels[start+i]
			l.correct = l.correct[:0]
			for _, id := range ids {
				l.correct = append(l.correct, train.Labels[id] == label)
			}
			core.TruncatedFromRankingInto(ids, l.correct, n, k, eps, dst)
			tr.end(sp)
			if each != nil {
				each(start+i, ids, dst)
			}
		}
		l.reduce(tr, acc, nb)
	}
	return l.average(tr, acc, test.N())
}

// dst returns the zeroed result slot i of length n.
func (l *libReplay) dst(i, n int) []float64 {
	if len(l.results[i]) != n {
		l.results[i] = make([]float64, n)
	} else {
		clear(l.results[i])
	}
	return l.results[i]
}

// rankCorrect lays out correctness by rank for a ranking.
func (l *libReplay) rankCorrect(ranking []int, correct []bool) []bool {
	l.correct = l.correct[:0]
	for _, id := range ranking {
		l.correct = append(l.correct, correct[id])
	}
	return l.correct
}

// reduce adds the first nb result slots into acc in slot order.
func (l *libReplay) reduce(tr *tracer, acc []float64, nb int) {
	sp := tr.begin("core.reduce")
	for _, r := range l.results[:nb] {
		for j, v := range r {
			acc[j] += v
		}
	}
	tr.end(sp)
}

// average turns the running sum into the mean, as core.Engine.Run does.
func (l *libReplay) average(tr *tracer, acc []float64, count int) []float64 {
	sp := tr.begin("core.reduce")
	inv := 1 / float64(count)
	for i := range acc {
		acc[i] *= inv
	}
	tr.end(sp)
	return acc
}
