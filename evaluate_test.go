package knnshapley

import (
	"context"
	"strings"
	"testing"
	"time"
)

// benchNoopParams is a stub method measuring pure Evaluate dispatch cost
// (and proving external packages can register their own methods).
type benchNoopParams struct{}

func (benchNoopParams) Name() string { return "test-noop" }
func (benchNoopParams) Schema() MethodSchema {
	return MethodSchema{Name: "test-noop", Description: "test stub", Params: []ParamSpec{}}
}
func (benchNoopParams) Validate() error  { return nil }
func (benchNoopParams) CacheKey() string { return "" }
func (benchNoopParams) Run(ctx context.Context, v *Valuer, test *Dataset) (*Report, error) {
	return &Report{Method: "test-noop"}, nil
}

func init() { Register(benchNoopParams{}) }

// builtinMethods is the algorithm family the package ships.
var builtinMethods = []string{
	"baseline", "composite", "exact", "kd", "lsh",
	"montecarlo", "sellers", "sellersmc", "truncated", "utility",
}

// The registry must expose every built-in algorithm, sorted, with a
// well-formed self-describing schema.
func TestRegistryCompleteAndSchemas(t *testing.T) {
	names := MethodNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range builtinMethods {
		if !have[want] {
			t.Fatalf("method %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Methods() not sorted: %v", names)
		}
	}
	for _, m := range Methods() {
		s := m.Schema()
		if s.Name != m.Name() {
			t.Fatalf("schema name %q for method %q", s.Name, m.Name())
		}
		if s.Description == "" {
			t.Fatalf("method %q has no description", m.Name())
		}
		if s.Params == nil {
			t.Fatalf("method %q has nil params (want an empty slice at least)", m.Name())
		}
		for _, p := range s.Params {
			if p.Name == "" || p.Type == "" {
				t.Fatalf("method %q has a param without name/type: %+v", m.Name(), p)
			}
		}
		got, ok := Lookup(m.Name())
		if !ok || got.Name() != m.Name() {
			t.Fatalf("Lookup(%q) = %v, %v", m.Name(), got, ok)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(ExactParams{})
}

// Evaluate must resolve names, default nil params, and reject nonsense
// before any computation starts.
func TestEvaluateRequestResolution(t *testing.T) {
	train := SynthMNIST(40, 1)
	test := SynthMNIST(4, 2)
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Name-only request: the registered defaults run.
	rep, err := v.Evaluate(ctx, Request{Method: "exact", Test: test})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "exact" || len(rep.Values) != train.N() {
		t.Fatalf("report %+v", rep)
	}

	// Name + params must agree.
	if _, err := v.Evaluate(ctx, Request{Method: "exact", Params: KDParams{Eps: 0.1}, Test: test}); err == nil ||
		!strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("mismatched method/params: %v", err)
	}
	// Matching pair is fine.
	if _, err := v.Evaluate(ctx, Request{Method: "kd", Params: KDParams{Eps: 0.25}, Test: test}); err != nil {
		t.Fatal(err)
	}

	if _, err := v.Evaluate(ctx, Request{Method: "mystery", Test: test}); err == nil ||
		!strings.Contains(err.Error(), `unknown method "mystery"`) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, err := v.Evaluate(ctx, Request{Test: test}); err == nil ||
		!strings.Contains(err.Error(), "empty Request") {
		t.Fatalf("empty request: %v", err)
	}

	// Invalid params are rejected with the method named.
	if _, err := v.Evaluate(ctx, Request{Params: TruncatedParams{Eps: -1}, Test: test}); err == nil ||
		!strings.Contains(err.Error(), "truncated: eps = -1") {
		t.Fatalf("invalid params: %v", err)
	}
}

// The named methods are thin wrappers over Evaluate; both entry points
// must produce bit-identical values for every algorithm.
func TestEvaluateMatchesMethodsBitIdentical(t *testing.T) {
	train := SynthMNIST(120, 1)
	test := SynthMNIST(9, 2)
	owners := AssignSellers(train.N(), 4)
	ctx := context.Background()
	v, err := New(train, WithK(2))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		params  Method
		wrapper func() (*Report, error)
	}{
		{ExactParams{}, func() (*Report, error) { return v.Exact(ctx, test) }},
		{TruncatedParams{Eps: 0.2}, func() (*Report, error) { return v.Truncated(ctx, test, 0.2) }},
		{MCParams{Bound: Fixed, T: 40, Seed: 3}, func() (*Report, error) {
			return v.MonteCarlo(ctx, test, MCParams{Bound: Fixed, T: 40, Seed: 3})
		}},
		{BaselineParams{Eps: 0.25, Delta: 0.25, T: 30, Seed: 5}, func() (*Report, error) {
			return v.BaselineMonteCarlo(ctx, test, 0.25, 0.25, 30, 5)
		}},
		{SellerParams{Owners: owners, M: 4}, func() (*Report, error) {
			return v.Sellers(ctx, test, owners, 4)
		}},
		{SellerMCParams{Owners: owners, M: 4, MCParams: MCParams{Bound: Fixed, T: 60, Seed: 7}},
			func() (*Report, error) {
				return v.SellersMC(ctx, test, owners, 4, MCParams{Bound: Fixed, T: 60, Seed: 7})
			}},
		{CompositeParams{Owners: owners, M: 4}, func() (*Report, error) {
			return v.Composite(ctx, test, owners, 4)
		}},
		{UtilityParams{Subset: []int{0, 3, 7}}, func() (*Report, error) {
			u, err := v.Utility(ctx, test, []int{0, 3, 7})
			return &Report{Values: []float64{u}}, err
		}},
	}
	for _, tc := range cases {
		name := tc.params.Name()
		viaEvaluate, err := v.Evaluate(ctx, Request{Params: tc.params, Test: test})
		if err != nil {
			t.Fatalf("%s via Evaluate: %v", name, err)
		}
		viaWrapper, err := tc.wrapper()
		if err != nil {
			t.Fatalf("%s via wrapper: %v", name, err)
		}
		assertBitIdentical(t, name, viaWrapper.Values, viaEvaluate.Values)
	}

	// The ANN methods need high-contrast data; same drill on a second
	// session (which also proves Evaluate shares the session index cache).
	deepTrain := SynthDeep(400, 7)
	deepTest := SynthDeep(5, 8)
	dv, err := New(deepTrain, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	lshEval, err := dv.Evaluate(ctx, Request{Params: LSHParams{Eps: 0.1, Delta: 0.1, Seed: 9}, Test: deepTest})
	if err != nil {
		t.Fatal(err)
	}
	lshWrap, err := dv.LSH(ctx, deepTest, 0.1, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "lsh", lshWrap.Values, lshEval.Values)
	kdEval, err := dv.Evaluate(ctx, Request{Params: KDParams{Eps: 0.1}, Test: deepTest})
	if err != nil {
		t.Fatal(err)
	}
	kdWrap, err := dv.KD(ctx, deepTest, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "kd", kdWrap.Values, kdEval.Values)
	if dv.indexBuilds != 2 {
		t.Fatalf("%d index builds across Evaluate+wrapper calls, want 2 (shared cache)", dv.indexBuilds)
	}
}

// DecodeParams is the single generic wire→params path: typed decode,
// defaults on empty input, rejection of misdirected parameters.
func TestDecodeParams(t *testing.T) {
	p, err := DecodeParams(MCParams{}, []byte(`{"eps":0.1,"delta":0.2,"seed":9,"heuristic":true}`))
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := p.(MCParams)
	if !ok || mc.Eps != 0.1 || mc.Delta != 0.2 || mc.Seed != 9 || !mc.Heuristic {
		t.Fatalf("decoded %#v", p)
	}

	// Embedded MC fields of sellersmc decode inline.
	p, err = DecodeParams(SellerMCParams{}, []byte(`{"owners":[0,1],"m":2,"t":5}`))
	if err != nil {
		t.Fatal(err)
	}
	smc := p.(SellerMCParams)
	if smc.M != 2 || smc.T != 5 || len(smc.Owners) != 2 {
		t.Fatalf("decoded %#v", smc)
	}

	// Defaults on empty input.
	p, err = DecodeParams(TruncatedParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.(TruncatedParams) != (TruncatedParams{}) {
		t.Fatalf("defaults %#v", p)
	}

	// A parameter the method does not take is an error, not noise.
	if _, err := DecodeParams(ExactParams{}, []byte(`{"eps":0.1}`)); err == nil ||
		!strings.Contains(err.Error(), "exact") {
		t.Fatalf("misdirected parameter: %v", err)
	}
	if _, err := DecodeParams(MCParams{}, []byte(`{"eps":"high"}`)); err == nil {
		t.Fatal("mistyped parameter accepted")
	}
}

// Evaluate's dispatch (registry lookup, validation, interface call) must
// stay under a microsecond per request — the redesign may not tax the
// hot path. Measured against a no-op method so only dispatch is timed.
// The hard gate only applies without -race: race instrumentation inflates
// every atomic/map access several-fold, which would make the bound flake
// on loaded runners without measuring anything real.
func TestEvaluateDispatchOverhead(t *testing.T) {
	train := SynthMNIST(10, 1)
	test := SynthMNIST(2, 2)
	v, err := New(train, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Method: "test-noop", Test: test}
	for i := 0; i < 1000; i++ { // warm up
		if _, err := v.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 100000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := v.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	perOp := time.Since(start) / iters
	t.Logf("Evaluate dispatch: %v/req", perOp)
	if raceEnabled {
		t.Skipf("measured %v/req; skipping the <1µs gate under -race (instrumentation overhead)", perOp)
	}
	if perOp > time.Microsecond {
		t.Fatalf("Evaluate dispatch costs %v/req, want < 1µs", perOp)
	}
}

func BenchmarkEvaluateDispatch(b *testing.B) {
	train := SynthMNIST(10, 1)
	test := SynthMNIST(2, 2)
	v, err := New(train, WithK(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Method: "test-noop", Test: test}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Evaluate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
