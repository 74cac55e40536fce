package knnshapley_test

import (
	"context"
	"fmt"
	"math"

	knnshapley "knnshapley"
)

// Group rationality: the values always sum to ν(I) − ν(∅).
func ExampleValuer_Utility() {
	train, _ := knnshapley.NewClassificationDataset(
		[][]float64{{0}, {1}, {2}, {3}}, []int{0, 0, 1, 1})
	test, _ := knnshapley.NewClassificationDataset([][]float64{{0.2}}, []int{0})
	v, _ := knnshapley.New(train, knnshapley.WithK(2))
	ctx := context.Background()
	rep, _ := v.Exact(ctx, test)
	full, _ := v.Utility(ctx, test, []int{0, 1, 2, 3})
	var total float64
	for _, val := range rep.Values {
		total += val
	}
	fmt.Printf("sum of values %.3f equals utility %.3f: %v\n",
		total, full, math.Abs(total-full) < 1e-12)
	// Output:
	// sum of values 1.000 equals utility 1.000: true
}

// Monetize converts relative values to payments under an affine revenue
// model.
func ExampleMonetize() {
	payments := knnshapley.Monetize([]float64{0.5, 0.3, 0.2}, 1000, 0)
	fmt.Println(payments)
	// Output:
	// [500 300 200]
}

// The truncated approximation zeroes everything beyond the K* nearest
// neighbors while keeping an eps error guarantee.
func ExampleValuer_Truncated() {
	train, _ := knnshapley.NewClassificationDataset(
		[][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}, []int{1, 0, 0, 0, 1, 0, 1, 0})
	test, _ := knnshapley.NewClassificationDataset([][]float64{{0}}, []int{1})
	v, _ := knnshapley.New(train, knnshapley.WithK(1))
	rep, _ := v.Truncated(context.Background(), test, 0.5) // K* = 2
	nonzero := 0
	for _, val := range rep.Values {
		if val != 0 {
			nonzero++
		}
	}
	fmt.Printf("non-zero values: %d of %d\n", nonzero, len(rep.Values))
	// Output:
	// non-zero values: 1 of 8
}

// The declarative entry point: every algorithm is a registered Method,
// a request names one (or carries its typed params), and Evaluate runs it.
// The named methods (v.Exact, v.Truncated, …) are thin wrappers over this.
func ExampleValuer_Evaluate() {
	train, _ := knnshapley.NewClassificationDataset(
		[][]float64{{0}, {1}, {4}}, []int{1, 0, 1})
	test, _ := knnshapley.NewClassificationDataset(
		[][]float64{{0.1}}, []int{1})
	v, _ := knnshapley.New(train, knnshapley.WithK(1))

	// By typed params — compile-time safe, self-validating.
	rep, _ := v.Evaluate(context.Background(), knnshapley.Request{
		Params: knnshapley.TruncatedParams{Eps: 0.5},
		Test:   test,
	})
	fmt.Printf("%s: %d values\n", rep.Method, len(rep.Values))

	// By name — the registered defaults run (here: exact has none).
	rep, _ = v.Evaluate(context.Background(), knnshapley.Request{Method: "exact", Test: test})
	fmt.Printf("%s: %+.3f\n", rep.Method, rep.Values[0])
	// Output:
	// truncated: 3 values
	// exact: +0.833
}

// Server-side method discovery: every registered method describes itself —
// name, parameters, types, requiredness, bounds. GET /methods serves
// exactly this.
func ExampleMethods() {
	m, _ := knnshapley.Lookup("truncated")
	schema := m.Schema()
	fmt.Println(schema.Name)
	for _, p := range schema.Params {
		fmt.Printf("  %s (%s, required=%v)\n", p.Name, p.Type, p.Required)
	}
	// Output:
	// truncated
	//   eps (float, required=true)
}

// The session API: one Valuer per training set, contexts on every call,
// a unified report back.
func ExampleNew() {
	train, _ := knnshapley.NewClassificationDataset(
		[][]float64{{0}, {1}, {4}}, []int{1, 0, 1})
	test, _ := knnshapley.NewClassificationDataset(
		[][]float64{{0.1}}, []int{1})
	v, _ := knnshapley.New(train, knnshapley.WithK(1))
	rep, _ := v.Exact(context.Background(), test)
	fmt.Println(rep.Method)
	for i, val := range rep.Values {
		fmt.Printf("point %d: %+.3f\n", i, val)
	}
	// Output:
	// exact
	// point 0: +0.833
	// point 1: -0.167
	// point 2: +0.333
}
