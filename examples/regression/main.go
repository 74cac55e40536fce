// KNN regression valuation: value training points for an unweighted KNN
// regressor (Theorem 6) and compare with the weighted variant priced by the
// improved Monte-Carlo estimator (Algorithm 2), since exact weighted
// valuation costs N^K.
//
// Run with: go run ./examples/regression
package main

import (
	"context"
	"fmt"
	"log"

	knnshapley "knnshapley"
)

func main() {
	train := knnshapley.SynthRegression(300, 6, 0.2, 1)
	test := knnshapley.SynthRegression(40, 6, 0.2, 2)

	ctx := context.Background()

	// Exact values for the unweighted KNN regressor (negative-MSE utility).
	valuer, err := knnshapley.New(train, knnshapley.WithK(5))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := valuer.Exact(ctx, test)
	if err != nil {
		log.Fatal(err)
	}
	sv := rep.Values
	idx := knnshapley.TopIndices(sv, len(sv))
	fmt.Println("unweighted KNN regression (exact, Theorem 6):")
	fmt.Printf("  best  point %3d: %+.6f (target %+.3f)\n", idx[0], sv[idx[0]], train.Targets[idx[0]])
	fmt.Printf("  worst point %3d: %+.6f (target %+.3f)\n",
		idx[len(idx)-1], sv[idx[len(idx)-1]], train.Targets[idx[len(idx)-1]])

	// Weighted KNN regression: exact would cost ~N^K utility evaluations.
	cost := knnshapley.EstimateWeightedCost(train.N(), 5)
	fmt.Printf("\nweighted KNN: exact counting cost ≈ %.2g utility evals -> using Monte Carlo\n", cost)
	weighted, err := knnshapley.New(train, knnshapley.WithK(5),
		knnshapley.WithWeight(knnshapley.InverseDistance(0.5)))
	if err != nil {
		log.Fatal(err)
	}
	wrep, err := weighted.MonteCarlo(ctx, test, knnshapley.MCParams{
		Eps: 0.05, Delta: 0.1, Bound: knnshapley.Bennett,
		RangeHalfWidth: 2, Heuristic: true, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ran %d of %d budgeted permutations (%d incremental utility updates)\n",
		wrep.Permutations, wrep.Budget, wrep.UtilityEvals)

	// The two utilities should broadly agree on which points matter.
	var agree int
	top := map[int]bool{}
	for _, i := range idx[:30] {
		top[i] = true
	}
	for _, i := range knnshapley.TopIndices(wrep.Values, 30) {
		if top[i] {
			agree++
		}
	}
	fmt.Printf("  top-30 overlap between unweighted and weighted values: %d/30\n", agree)
}
