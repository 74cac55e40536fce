package knnshapley

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"knnshapley/internal/dataset"
)

// The dataset constructors must reject malformed input with a descriptive
// error — never a panic and never a silently broken dataset.
func TestDatasetConstructorValidation(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Dataset, error)
		wantErr string // substring of the error, "" = must succeed
	}{
		{
			name: "valid classification",
			build: func() (*Dataset, error) {
				return NewClassificationDataset([][]float64{{0, 1}, {1, 0}}, []int{0, 1})
			},
		},
		{
			name: "valid regression",
			build: func() (*Dataset, error) {
				return NewRegressionDataset([][]float64{{0, 1}, {1, 0}}, []float64{0.5, -0.5})
			},
		},
		{
			name: "negative class label",
			build: func() (*Dataset, error) {
				return NewClassificationDataset([][]float64{{0}, {1}}, []int{0, -1})
			},
			wantErr: "label -1",
		},
		{
			name: "fewer labels than rows",
			build: func() (*Dataset, error) {
				return NewClassificationDataset([][]float64{{0}, {1}, {2}}, []int{0, 1})
			},
			wantErr: "2 labels for 3 rows",
		},
		{
			name: "more labels than rows",
			build: func() (*Dataset, error) {
				return NewClassificationDataset([][]float64{{0}}, []int{0, 1, 1})
			},
			wantErr: "3 labels for 1 rows",
		},
		{
			name: "fewer targets than rows",
			build: func() (*Dataset, error) {
				return NewRegressionDataset([][]float64{{0}, {1}, {2}}, []float64{0.1})
			},
			wantErr: "1 targets for 3 rows",
		},
		{
			name: "ragged feature rows",
			build: func() (*Dataset, error) {
				return NewClassificationDataset([][]float64{{0, 1}, {1}}, []int{0, 1})
			},
			wantErr: "row 1 has dim 1",
		},
		{
			name: "rows without responses",
			build: func() (*Dataset, error) {
				return NewClassificationDataset([][]float64{{0}, {1}}, nil)
			},
			wantErr: "no responses",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.build() // must not panic, under any input
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if _, ok := d.Flat(); !ok {
					t.Fatal("constructor did not flatten the dataset")
				}
				return
			}
			if err == nil {
				t.Fatalf("no error, want one containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// New must reject unusable sessions up front, once, with descriptive
// errors — not on the first valuation call.
func TestNewValuerValidation(t *testing.T) {
	train := SynthMNIST(20, 1)
	empty, err := NewClassificationDataset(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		train   *Dataset
		opts    []Option
		wantErr string
	}{
		{name: "valid", train: train, opts: []Option{WithK(3)}},
		{name: "missing WithK", train: train, wantErr: "K = 0"},
		{name: "negative K", train: train, opts: []Option{WithK(-2)}, wantErr: "K = -2"},
		{name: "nil train", train: nil, opts: []Option{WithK(1)}, wantErr: "nil training set"},
		{name: "empty train", train: empty, opts: []Option{WithK(1)}, wantErr: "empty training set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := New(tc.train, tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if v.Train() != tc.train {
					t.Fatal("session does not hold the training set")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// Every valuation method must reject nil/empty test sets and bad seller
// maps with a descriptive error instead of returning nil values.
func TestValuerRejectsBadArguments(t *testing.T) {
	train := SynthMNIST(30, 1)
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	emptyTest, err := NewClassificationDataset(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one containing %q", name, err, want)
		}
	}
	_, err = v.Exact(ctx, emptyTest)
	check("Exact empty test", err, "empty test set")
	_, err = v.Exact(ctx, nil)
	check("Exact nil test", err, "nil test set")
	_, err = v.MonteCarlo(ctx, emptyTest, MCParams{Bound: Fixed, T: 1})
	check("MonteCarlo empty test", err, "empty test set")
	_, err = v.Truncated(ctx, emptyTest, 0.1)
	check("Truncated empty test", err, "empty test set")
	_, err = v.KD(ctx, emptyTest, 0.1)
	check("KD empty test", err, "empty test set")
	_, err = v.Utility(ctx, emptyTest, nil)
	check("Utility empty test", err, "empty test set")

	test := SynthMNIST(4, 2)
	owners := AssignSellers(train.N(), 3)
	_, err = v.Sellers(ctx, test, owners[:10], 3)
	check("Sellers short owners", err, "10 owners for 30 training points")
	bad := append([]int(nil), owners...)
	bad[5] = 7
	_, err = v.Sellers(ctx, test, bad, 3)
	check("Sellers owner out of range", err, "owner 7 of point 5 outside [0,3)")
	_, err = v.SellersMC(ctx, test, owners, 0, MCParams{Bound: Fixed, T: 1})
	check("SellersMC m=0", err, "seller count m = 0")
	_, err = v.Utility(ctx, test, []int{-1})
	check("Utility bad subset", err, "subset index -1")
}

// A NaN distance never compares, so the top-K heap and the full sort rank
// it differently and Theorem 2 silently breaks. New must reject a NaN or
// ±Inf training feature and every registered method a non-finite test
// feature.
func TestNonFiniteFeaturesRejected(t *testing.T) {
	train, test := SynthMNIST(60, 1), SynthMNIST(5, 2)
	v, err := New(train, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	owners := AssignSellers(train.N(), 3)
	mc := MCParams{Bound: Fixed, T: 2, Seed: 1}
	methods := []Method{
		ExactParams{},
		TruncatedParams{Eps: 0.1},
		mc,
		BaselineParams{Eps: 0.5, Delta: 0.5, T: 2, Seed: 1},
		SellerParams{Owners: owners, M: 3},
		SellerMCParams{Owners: owners, M: 3, MCParams: mc},
		CompositeParams{},
		LSHParams{Eps: 0.1, Delta: 0.1, Seed: 1},
		KDParams{Eps: 0.1},
		UtilityParams{Subset: []int{0, 1}},
		AutoParams{Eps: 0.1, Delta: 0.1, Seed: 1},
	}
	listed := make(map[string]bool, len(methods))
	for _, m := range methods {
		listed[m.Name()] = true
	}
	for _, m := range Methods() {
		if _, stub := m.(benchNoopParams); stub {
			continue // evaluate_test.go's dispatch stub values nothing
		}
		if !listed[m.Name()] {
			t.Errorf("registered method %q is missing from this test's list", m.Name())
		}
	}
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		badTrain := train.Clone()
		badTrain.X[7][0] = bad
		if _, err := New(badTrain, WithK(3)); !errors.Is(err, dataset.ErrNonFinite) {
			t.Errorf("New with a %v training feature: err = %v, want ErrNonFinite", bad, err)
		}
		badTest := test.Clone()
		badTest.X[2][1] = bad
		for _, m := range methods {
			if _, err := v.Evaluate(ctx, Request{Params: m, Test: badTest}); !errors.Is(err, dataset.ErrNonFinite) {
				t.Errorf("Evaluate %s with a %v test feature: err = %v, want ErrNonFinite", m.Name(), bad, err)
			}
		}
	}
}
