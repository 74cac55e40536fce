package knnshapley

import (
	"context"
	"math"
	"testing"
)

// The float32 compute mode changes only the distance scan: neighbor
// orderings (and hence unweighted values) may differ from the float64 mode
// only where two training points are within single-precision rounding of
// the same distance. These tests pin that tolerance contract across the
// exact, truncated and Monte-Carlo paths on the documented scale: value
// drift bounded by 1/K per point (one adjacent near-tie rank swap) and a
// near-zero drift of the value sum (efficiency is exact under any ranking).
func precisionPair(t *testing.T, opts ...Option) (*Valuer, *Valuer, *Dataset) {
	t.Helper()
	train := SynthDeep(300, 41)
	test := SynthDeep(25, 42)
	v64, err := New(train, append([]Option{WithK(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	v32, err := New(train, append([]Option{WithK(4), WithPrecision(Float32)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return v64, v32, test
}

func comparePrecision(t *testing.T, name string, want, got []float64, k int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	var sumW, sumG float64
	flips := 0
	for i := range want {
		sumW += want[i]
		sumG += got[i]
		if d := math.Abs(got[i] - want[i]); d > 1/float64(k)+1e-12 {
			t.Errorf("%s: value %d = %v, float64 %v (drift %v beyond a near-tie swap)", name, i, got[i], want[i], d)
		} else if d > 1e-7 {
			flips++
		}
	}
	// Efficiency holds under every ranking, so the sum must agree to
	// accumulated rounding even when individual ranks flipped.
	if d := math.Abs(sumG - sumW); d > 1e-6*math.Max(1, math.Abs(sumW)) {
		t.Errorf("%s: value sum %v, float64 %v", name, sumG, sumW)
	}
	// Rank flips require near-exact distance ties; on generic synthetic
	// data they must stay rare.
	if flips > len(want)/10 {
		t.Errorf("%s: %d/%d values drifted past 1e-7 — more than near-tie flips explain", name, flips, len(want))
	}
}

func TestFloat32ToleranceExact(t *testing.T) {
	v64, v32, test := precisionPair(t)
	ctx := context.Background()
	r64, err := v64.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := v32.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	comparePrecision(t, "exact", r64.Values, r32.Values, v64.K())
}

func TestFloat32ToleranceTruncated(t *testing.T) {
	v64, v32, test := precisionPair(t)
	ctx := context.Background()
	const eps = 0.05
	r64, err := v64.Truncated(ctx, test, eps)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := v32.Truncated(ctx, test, eps)
	if err != nil {
		t.Fatal(err)
	}
	comparePrecision(t, "truncated", r64.Values, r32.Values, v64.K())
}

func TestFloat32ToleranceMonteCarlo(t *testing.T) {
	v64, v32, test := precisionPair(t)
	ctx := context.Background()
	opts := MCParams{T: 60, Seed: 9}
	r64, err := v64.MonteCarlo(ctx, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := v32.MonteCarlo(ctx, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same permutations: the estimates may differ only through
	// near-tie KNN-set membership changes, bounded like the exact case.
	comparePrecision(t, "montecarlo", r64.Values, r32.Values, v64.K())
}

// Float64 is the default and must stay bit-identical whether or not it is
// spelled out.
func TestFloat64DefaultBitIdentical(t *testing.T) {
	train := SynthDeep(120, 51)
	test := SynthDeep(10, 52)
	ctx := context.Background()
	vDefault, err := New(train, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	vExplicit, err := New(train, WithK(3), WithPrecision(Float64))
	if err != nil {
		t.Fatal(err)
	}
	a, err := vDefault.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vExplicit.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("value %d: %v != %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestNewRejectsUnknownPrecision(t *testing.T) {
	train := SynthDeep(10, 1)
	if _, err := New(train, WithK(1), WithPrecision(Precision(7))); err == nil {
		t.Fatal("expected error for unknown precision")
	}
}

func TestParsePrecision(t *testing.T) {
	for name, want := range map[string]Precision{
		"": Float64, "float64": Float64, "f64": Float64,
		"float32": Float32, "f32": Float32,
	} {
		got, err := ParsePrecision(name)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePrecision("bfloat16"); err == nil {
		t.Fatal("expected error for unknown precision name")
	}
}
