// Command planner-calib measures the per-test-point cost of every valuation
// method over the planner's calibration grid (N × dim), plus LSH and k-d
// index build times, and prints the Go literal the planner's seeded cost
// model is generated from. Rerun it (and paste the output into
// internal/planner/grid.go) when the method implementations change enough
// to move the crossover points.
package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	knnshapley "knnshapley"
)

func synth(n, dim int, seed uint64) *knnshapley.Dataset {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		row := make([]float64, dim)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		x[i] = row
		labels[i] = rng.IntN(10)
	}
	d, err := knnshapley.NewClassificationDataset(x, labels)
	if err != nil {
		panic(err)
	}
	return d
}

func main() {
	ctx := context.Background()
	ns := []int{1000, 10000, 100000}
	dims := []int{4, 64}
	ntest := 16
	k := 5
	fmt.Printf("// GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))

	type req struct {
		method string
		params knnshapley.Method
	}
	reqs := []req{
		{"exact", knnshapley.ExactParams{}},
		{"truncated", knnshapley.TruncatedParams{Eps: 0.1}},
		{"montecarlo", knnshapley.MCParams{Eps: 0.1, Delta: 0.1, Seed: 1}},
		{"lsh", knnshapley.LSHParams{Eps: 0.1, Delta: 0.1, Seed: 1}},
		{"kd", knnshapley.KDParams{Eps: 0.1}},
	}

	for _, dim := range dims {
		for _, n := range ns {
			train := synth(n, dim, uint64(n+dim))
			test := synth(ntest, dim, 7)
			for _, rq := range reqs {
				v, err := knnshapley.New(train, knnshapley.WithK(k))
				if err != nil {
					panic(err)
				}
				rep, err := v.Evaluate(ctx, knnshapley.Request{Params: rq.params, Test: test})
				if err != nil {
					fmt.Printf("// %s n=%d dim=%d: %v\n", rq.method, n, dim, err)
					continue
				}
				// First run pays index build; run again on the warm session for
				// the per-point query cost.
				rep, err = v.Evaluate(ctx, knnshapley.Request{Params: rq.params, Test: synth(ntest, dim, 8)})
				if err != nil {
					panic(err)
				}
				perPoint := float64(rep.Duration.Nanoseconds()) / float64(ntest)
				fmt.Printf("{method: %q, n: %d, dim: %d, perPointNs: %.0f},\n", rq.method, n, dim, perPoint)
				os.Stdout.Sync()
			}
			// Index build costs at this grid point, each on a fresh session.
			for _, kind := range []string{"lsh", "kd"} {
				v, err := knnshapley.New(train, knnshapley.WithK(k))
				if err != nil {
					panic(err)
				}
				start := time.Now()
				if _, err := v.EnsureIndex(kind, 0.1, 0.1, 1); err == nil {
					fmt.Printf("{method: %q, n: %d, dim: %d, buildNs: %.0f},\n", kind, n, dim, float64(time.Since(start).Nanoseconds()))
				}
			}
		}
	}
}
