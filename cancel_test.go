package knnshapley

import (
	"context"
	"errors"
	"testing"
	"time"
)

// promptly runs fn with a context canceled after delay and asserts fn
// surfaces ctx.Err() well before the workload could finish on its own:
// within one engine batch for streamed kernels, within one permutation for
// the Monte-Carlo loops.
func promptly(t *testing.T, name string, delay time.Duration, fn func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(delay, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	err := fn(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: err = %v, want context.Canceled", name, err)
	}
	// The workloads below are sized to run for tens of seconds uncanceled;
	// the generous bound keeps the assertion meaningful under -race on slow
	// machines without flaking.
	if elapsed > 10*time.Second {
		t.Fatalf("%s: returned after %v, cancellation was not prompt", name, elapsed)
	}
}

// An already-canceled context must abort before any distance is computed.
func TestCancelBeforeStart(t *testing.T) {
	train := SynthMNIST(50, 1)
	test := SynthMNIST(5, 2)
	v, err := New(train, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.Exact(ctx, test); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exact: err = %v, want context.Canceled", err)
	}
	if _, err := v.MonteCarlo(ctx, test, MCParams{Bound: Fixed, T: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MonteCarlo: err = %v, want context.Canceled", err)
	}
	if _, err := v.Utility(ctx, test, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Utility: err = %v, want context.Canceled", err)
	}
}

// A context canceled mid-run stops a streamed Exact valuation within one
// engine batch: many small batches give the engine frequent checkpoints.
func TestCancelExact(t *testing.T) {
	train := SynthMNIST(4000, 1)
	test := SynthMNIST(4000, 2)
	v, err := New(train, WithK(3), WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	promptly(t, "Exact", 5*time.Millisecond, func(ctx context.Context) error {
		_, err := v.Exact(ctx, test)
		return err
	})
}

// A canceled context stops the Monte-Carlo sampler between permutations —
// the fixed budget below would otherwise run for days.
func TestCancelMonteCarlo(t *testing.T) {
	train := SynthMNIST(500, 1)
	test := SynthMNIST(4, 2)
	v, err := New(train, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	promptly(t, "MonteCarlo", 10*time.Millisecond, func(ctx context.Context) error {
		_, err := v.MonteCarlo(ctx, test, MCParams{Bound: Fixed, T: 1 << 30, Seed: 1})
		return err
	})
}

// The seller-level sampler has the same per-permutation checkpoint.
func TestCancelSellersMC(t *testing.T) {
	train := SynthMNIST(400, 1)
	test := SynthMNIST(4, 2)
	owners := AssignSellers(train.N(), 40)
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	promptly(t, "SellersMC", 10*time.Millisecond, func(ctx context.Context) error {
		_, err := v.SellersMC(ctx, test, owners, 40, MCParams{Bound: Fixed, T: 1 << 30, Seed: 2})
		return err
	})
}

// The exact seller game checks the context per test point and per batch.
func TestCancelSellers(t *testing.T) {
	train := SynthMNIST(2000, 1)
	test := SynthMNIST(2000, 2)
	owners := AssignSellers(train.N(), 25)
	v, err := New(train, WithK(2), WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	promptly(t, "Sellers", 5*time.Millisecond, func(ctx context.Context) error {
		_, err := v.Sellers(ctx, test, owners, 25)
		return err
	})
}

// A deadline behaves like cancellation but surfaces DeadlineExceeded.
func TestCancelDeadline(t *testing.T) {
	train := SynthMNIST(500, 1)
	test := SynthMNIST(4, 2)
	v, err := New(train, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = v.MonteCarlo(ctx, test, MCParams{Bound: Fixed, T: 1 << 30, Seed: 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
