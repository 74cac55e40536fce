// Streaming valuation via the delta API: sellers join a long-running data
// market in mini-batches (the arrival stream of Section 1's marketplace
// setting) and every seller's Shapley value is refreshed after each arrival.
// Re-valuing from scratch would pay the full O(Ntest·N·d) distance scan per
// batch; instead each batch is applied as a versioned dataset delta
// (registry.ApplyDelta records the lineage edge) and the incremental
// evaluator scans only the ΔN new points, merges them into the cached
// neighbor rankings, and replays the KNN-Shapley recurrence — O(ΔN·d + N)
// per revaluation, bit-identical to a from-scratch run (checked at the end).
//
// This is the in-process shape of what cmd/svserver serves over HTTP as
// PUT /datasets/{id}/delta followed by a by-ref valuation of the child ID.
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	knnshapley "knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/registry"
)

func main() {
	base := knnshapley.SynthDeep(20000, 1)
	queries := knnshapley.SynthDeep(100, 2)
	const k = 2
	const batch = 10 // sellers per arrival
	const rounds = 8

	reg, err := registry.New(registry.Config{})
	if err != nil {
		log.Fatal(err)
	}
	bh, _, err := reg.Put(base)
	if err != nil {
		log.Fatal(err)
	}
	qh, _, err := reg.Put(queries)
	if err != nil {
		log.Fatal(err)
	}
	inc := cluster.NewIncremental(cluster.NewRankCache(0), reg)
	ctx := context.Background()

	// Open the market: one full scan builds the neighbor-rank cache entry
	// every later arrival patches against.
	req := cluster.Request{
		Train: bh.Dataset(), Test: qh.Dataset(),
		TrainID: bh.ID(), TestID: qh.ID(),
		Method: "exact", K: k,
	}
	start := time.Now()
	prev, err := inc.Values(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fullScan := time.Since(start)
	fmt.Printf("market open: %d sellers valued from scratch in %v\n",
		base.N(), fullScan.Round(time.Millisecond))

	// Stream arrivals: each batch is a delta append, and the revaluation
	// rides the O(ΔN) patch path off the previous version's cached ranking.
	cur := bh
	var patchTotal time.Duration
	for r := 0; r < rounds; r++ {
		arrivals := knnshapley.SynthDeep(batch, uint64(100+r))
		child, lin, _, err := reg.ApplyDelta(cur.ID(), registry.Delta{Append: arrivals})
		if err != nil {
			log.Fatal(err)
		}
		creq := req
		creq.Train, creq.TrainID = child.Dataset(), child.ID()
		t := time.Now()
		vals, err := inc.Values(ctx, creq)
		if err != nil {
			log.Fatal(err)
		}
		patch := time.Since(t)
		patchTotal += patch

		// Value drift among incumbents, and what the newcomers captured.
		var drift, newcomers float64
		for j, v := range vals[:len(prev)] {
			drift = math.Max(drift, math.Abs(v-prev[j]))
		}
		for _, v := range vals[len(prev):] {
			newcomers += v
		}
		fmt.Printf("  +%2d sellers → %d (version %s…): revalued in %v, "+
			"max incumbent drift %.5f, newcomers Σv %.4f\n",
			lin.Appended, child.Dataset().N(), child.ID()[:8],
			patch.Round(time.Microsecond), drift, newcomers)

		prev = vals
		cur.Release()
		cur = child
	}
	defer cur.Release()

	// The contract that makes the shortcut safe: the incremental values are
	// bit-identical to valuing the final market from scratch.
	final, err := knnshapley.New(cur.Dataset(), knnshapley.WithK(k))
	if err != nil {
		log.Fatal(err)
	}
	exact, err := final.Exact(ctx, queries)
	if err != nil {
		log.Fatal(err)
	}
	for j, v := range exact.Values {
		if math.Float64bits(v) != math.Float64bits(prev[j]) {
			log.Fatalf("value %d diverged: %v != %v", j, v, prev[j])
		}
	}
	st := inc.Stats()
	perPatch := patchTotal / rounds
	fmt.Printf("bit-identical to from-scratch over %d sellers ✓ "+
		"(%d full scan, %d patches)\n", cur.Dataset().N(), st.FromScratch, st.Patches)
	fmt.Printf("%v per arrival vs %v from scratch — ×%.0f\n",
		perPatch.Round(time.Microsecond), fullScan.Round(time.Millisecond),
		float64(fullScan)/float64(perPatch))
}
