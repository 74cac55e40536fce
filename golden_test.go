package knnshapley

// Golden-file regression tests: exact, truncated and seller values on a
// fixed seeded synthetic dataset are pinned bit-for-bit to
// testdata/golden_*.json. Engine refactors that change results in ANY bit —
// reduction order, kernel arithmetic, neighbor tie-breaking — fail here
// immediately. encoding/json preserves float64 values exactly (shortest
// round-trip formatting), so equality below really is bitwise.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGolden -update .

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with current results")

// goldenFile is one pinned valuation.
type goldenFile struct {
	Method string    `json:"method"`
	N      int       `json:"n"`
	NTest  int       `json:"nTest"`
	K      int       `json:"k"`
	Eps    float64   `json:"eps,omitempty"`
	Delta  float64   `json:"delta,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
	M      int       `json:"m,omitempty"`
	Values []float64 `json:"values"`
}

// goldenData is the fixed scenario shared by all the files. The synthetic
// generators are seeded and deterministic, so the inputs themselves are
// stable across runs and platforms. opts follow WithK(3); none of them may
// change a value.
func goldenData(t *testing.T, opts ...Option) (*Valuer, *Dataset) {
	t.Helper()
	train := SynthDeep(200, 71)
	test := SynthDeep(20, 72)
	v, err := New(train, append([]Option{WithK(3)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return v, test
}

func checkGolden(t *testing.T, name string, got goldenFile) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update .` to create it)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if got.Method != want.Method || got.N != want.N || got.NTest != want.NTest ||
		got.K != want.K || got.Eps != want.Eps || got.Delta != want.Delta ||
		got.Seed != want.Seed || got.M != want.M {
		t.Fatalf("scenario drifted: got %+v metadata, want %+v", got, want)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: value %d = %v, want %v (bit-for-bit)", name, i, got.Values[i], want.Values[i])
		}
	}
}

func TestGoldenExact(t *testing.T) {
	v, test := goldenData(t)
	rep, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_exact.json", goldenFile{
		Method: rep.Method, N: v.Train().N(), NTest: test.N(), K: v.K(), Values: rep.Values,
	})
}

func TestGoldenTruncated(t *testing.T) {
	v, test := goldenData(t)
	const eps = 0.25
	rep, err := v.Truncated(context.Background(), test, eps)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_truncated.json", goldenFile{
		Method: rep.Method, N: v.Train().N(), NTest: test.N(), K: v.K(), Eps: eps, Values: rep.Values,
	})
}

func TestGoldenSellers(t *testing.T) {
	v, test := goldenData(t)
	const m = 8
	owners := AssignSellers(v.Train().N(), m)
	rep, err := v.Sellers(context.Background(), test, owners, m)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_sellers.json", goldenFile{
		Method: rep.Method, N: v.Train().N(), NTest: test.N(), K: v.K(), M: m, Values: rep.Values,
	})
}

// The LSH and k-d paths retrieve K* = 10 neighbors per test point from a
// seeded index. With one worker the LSH run's single engine batch of 20 test
// points is queried in groups of 8, 8 and 4.
func TestGoldenLSH(t *testing.T) {
	v, test := goldenData(t, WithWorkers(1))
	const eps, delta, seed = 0.1, 0.1, 7
	rep, err := v.LSH(context.Background(), test, eps, delta, seed)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_lsh.json", goldenFile{
		Method: rep.Method, N: v.Train().N(), NTest: test.N(), K: v.K(), Eps: eps, Delta: delta, Seed: seed, Values: rep.Values,
	})
}

func TestGoldenKD(t *testing.T) {
	v, test := goldenData(t)
	const eps = 0.1
	rep, err := v.KD(context.Background(), test, eps)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_kd.json", goldenFile{
		Method: rep.Method, N: v.Train().N(), NTest: test.N(), K: v.K(), Eps: eps, Values: rep.Values,
	})
}
