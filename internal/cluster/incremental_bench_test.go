package cluster

import (
	"context"
	"testing"

	"knnshapley"
	"knnshapley/internal/dataset"
)

// BenchmarkRankEntry times the rank cache's three kinds of traffic on
// MNIST-like data at K=5, distance scans excluded:
//
//   - cold: NewRankEntry plus one exact replay, what a valuation of a
//     (train, test) pair with no cached ranking costs past its scan;
//   - patched: PatchAppend of 10 rows onto an entry that is already patched,
//     plus one exact replay — one arrival of a delta stream;
//   - warm: one exact replay of an entry that is already built.
func BenchmarkRankEntry(b *testing.B) {
	const k = 5
	report := func(b *testing.B, train, test *dataset.Dataset, offset, n int) *ShardReport {
		b.Helper()
		sr, err := ComputeShardReport(context.Background(), train, test, ShardParams{K: k, GlobalOffset: offset, GlobalN: n})
		if err != nil {
			b.Fatal(err)
		}
		return sr
	}
	replay := func(b *testing.B, e *RankEntry) {
		if _, err := e.Values("exact", k, 0); err != nil {
			b.Fatal(err)
		}
	}

	train, test := knnshapley.SynthMNIST(20000, 1), knnshapley.SynthMNIST(4, 2)
	full := report(b, train, test, 0, train.N())
	b.Run("cold/n=20000/tp=4", func(b *testing.B) {
		for b.Loop() {
			e, err := NewRankEntry(full)
			if err != nil {
				b.Fatal(err)
			}
			replay(b, e)
		}
	})
	b.Run("patched/n=10000/tp=16/dn=10", func(b *testing.B) {
		test := knnshapley.SynthMNIST(16, 3)
		parent := knnshapley.SynthMNIST(10000, 4)
		child := appendRows(parent, knnshapley.SynthMNIST(10, 5))
		grandchild := appendRows(child, knnshapley.SynthMNIST(10, 6))
		e, err := NewRankEntry(report(b, parent, test, 0, parent.N()))
		if err != nil {
			b.Fatal(err)
		}
		if e, err = e.PatchAppend(report(b, sliceRows(child, parent.N(), child.N()), test, parent.N(), child.N())); err != nil {
			b.Fatal(err)
		}
		delta := report(b, sliceRows(grandchild, child.N(), grandchild.N()), test, child.N(), grandchild.N())
		for b.Loop() {
			ne, err := e.PatchAppend(delta)
			if err != nil {
				b.Fatal(err)
			}
			replay(b, ne)
		}
	})
	b.Run("warm/n=20000/tp=4", func(b *testing.B) {
		e, err := NewRankEntry(full)
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			replay(b, e)
		}
	})
}
