package cluster

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"knnshapley"
	"knnshapley/internal/dataset"
	"knnshapley/internal/registry"
)

// fullReport computes the complete single-shard report incremental caching
// starts from.
func fullReport(t *testing.T, train, test *dataset.Dataset, k int) *ShardReport {
	t.Helper()
	sr, err := ComputeShardReport(context.Background(), train, test, ShardParams{K: k, GlobalN: train.N()})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// deltaReport ranks the appended tail rows of child against test with the
// offsets PatchAppend expects.
func deltaReport(t *testing.T, child, test *dataset.Dataset, k, appended int) *ShardReport {
	t.Helper()
	tail := sliceRows(child, child.N()-appended, child.N())
	sr, err := ComputeShardReport(context.Background(), tail, test, ShardParams{
		K: k, GlobalOffset: child.N() - appended, GlobalN: child.N(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// appendRows builds parent+extra as one contiguous dataset (the registry's
// delta-append semantics).
func appendRows(parent, extra *dataset.Dataset) *dataset.Dataset {
	child := parent.Clone()
	child.X = append(child.X, extra.X...)
	child.Labels = append(child.Labels, extra.Labels...)
	if extra.Classes > child.Classes {
		child.Classes = extra.Classes
	}
	child.Flatten()
	return child
}

func requireSameValueBits(t *testing.T, want, got []float64, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: value[%d] = %v (bits %#x), want %v (bits %#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// singleNodeValues is the ground truth: a fresh Valuer over the full dataset.
func singleNodeValues(t *testing.T, train, test *dataset.Dataset, k int, method string, eps float64) []float64 {
	t.Helper()
	v, err := knnshapley.New(train, knnshapley.WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	var rep *knnshapley.Report
	if method == "truncated" {
		rep, err = v.Truncated(context.Background(), test, eps)
	} else {
		rep, err = v.Exact(context.Background(), test)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep.Values
}

// TestRankEntryPatchAppendMatchesFromScratch pins the structural property
// under everything else: a patched entry is indistinguishable — values,
// either method — from an entry built from scratch on the grown dataset,
// including chained patches and the flatten path.
func TestRankEntryPatchAppendMatchesFromScratch(t *testing.T) {
	const k = 5
	test := knnshapley.SynthMNIST(9, 2)
	cur := knnshapley.SynthMNIST(83, 1)
	e, err := NewRankEntry(fullReport(t, cur, test, k))
	if err != nil {
		t.Fatal(err)
	}
	for step, dn := range []int{1, 7, 1, 29} {
		cur = appendRows(cur, knnshapley.SynthMNIST(dn, uint64(10+step)))
		if e, err = e.PatchAppend(deltaReport(t, cur, test, k, dn)); err != nil {
			t.Fatal(err)
		}
		scratch, err := NewRankEntry(fullReport(t, cur, test, k))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			method string
			eps    float64
		}{{"exact", 0}, {"truncated", 0.3}, {"truncated", 0.009}} {
			want, err := scratch.Values(m.method, k, m.eps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Values(m.method, k, m.eps)
			if err != nil {
				t.Fatal(err)
			}
			requireSameValueBits(t, want, got, m.method)
		}
		// The spliced view must equal the scratch ranking entry for entry —
		// ordering and correctness bits, not just values.
		for tp := 0; tp < e.ntest; tp++ {
			r := 0
			e.splice(tp, func(v uint32, d float64) {
				if v != scratch.base.idx[tp][r] || d != scratch.base.dist[tp][r] {
					t.Fatalf("step %d: test point %d rank %d: spliced (%#x, %v), scratch (%#x, %v)",
						step, tp, r, v, d, scratch.base.idx[tp][r], scratch.base.dist[tp][r])
				}
				r++
			})
		}
	}
	if !e.Patched() {
		t.Fatal("entry lost its overlay without crossing the flatten threshold")
	}
	if _, err := e.PatchAppend(nil); err == nil {
		t.Fatal("nil delta report accepted")
	}

	// A delta past the flatten threshold materializes into a fresh base.
	big := appendRows(cur, knnshapley.SynthMNIST(1100, 99))
	flat, err := e.PatchAppend(deltaReport(t, big, test, k, 1100))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Patched() {
		t.Fatalf("overlay of %d insertions survived threshold %d", 1100, e.flattenThreshold())
	}
	scratch, err := NewRankEntry(fullReport(t, big, test, k))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scratch.Values("exact", k, 0)
	got, _ := flat.Values("exact", k, 0)
	requireSameValueBits(t, want, got, "flattened exact")
}

// TestRankEntryWithRemovedMatchesFromScratch pins removal compaction, alone
// and stacked on a patched entry.
// With fewer training points than K, K* >= n and a truncated replay must
// equal the exact one bit for bit — Theorem 1's base case is
// 1[correct]/max(n, k) — on unpatched and patched entries alike.
func TestRankEntryTruncatedEqualsExactBelowK(t *testing.T) {
	test := knnshapley.SynthMNIST(6, 2)
	for _, n := range []int{1, 3, 8} {
		for _, k := range []int{2, 5, 12} {
			if n >= k {
				continue
			}
			train := knnshapley.SynthMNIST(n, uint64(n))
			e, err := NewRankEntry(fullReport(t, train, test, k))
			if err != nil {
				t.Fatal(err)
			}
			entries := []*RankEntry{e}
			if n > 1 {
				parent := sliceRows(train, 0, n-1)
				pe, err := NewRankEntry(fullReport(t, parent, test, k))
				if err != nil {
					t.Fatal(err)
				}
				if pe, err = pe.PatchAppend(deltaReport(t, train, test, k, 1)); err != nil {
					t.Fatal(err)
				}
				entries = append(entries, pe)
			}
			for _, e := range entries {
				exact, err := e.Values("exact", k, 0)
				if err != nil {
					t.Fatal(err)
				}
				trunc, err := e.Values("truncated", k, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				requireSameValueBits(t, exact, trunc, fmt.Sprintf("n=%d k=%d patched=%v", n, k, e.Patched()))
			}
		}
	}
}

func TestRankEntryWithRemovedMatchesFromScratch(t *testing.T) {
	const k = 3
	test := knnshapley.SynthMNIST(5, 21)
	parent := knnshapley.SynthMNIST(60, 20)
	e, err := NewRankEntry(fullReport(t, parent, test, k))
	if err != nil {
		t.Fatal(err)
	}
	// Patch first so removal exercises the spliced walk.
	child := appendRows(parent, knnshapley.SynthMNIST(6, 22))
	if e, err = e.PatchAppend(deltaReport(t, child, test, k, 6)); err != nil {
		t.Fatal(err)
	}
	removed := []int{0, 17, 39, 64, 65}
	kept := make([]int, 0, child.N())
	ri := 0
	for i := 0; i < child.N(); i++ {
		if ri < len(removed) && removed[ri] == i {
			ri++
			continue
		}
		kept = append(kept, i)
	}
	after := &dataset.Dataset{Classes: child.Classes}
	for _, i := range kept {
		after.X = append(after.X, child.X[i])
		after.Labels = append(after.Labels, child.Labels[i])
	}
	after.Flatten()

	got, err := e.WithRemoved(removed)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewRankEntry(fullReport(t, after, test, k))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		method string
		eps    float64
	}{{"exact", 0}, {"truncated", 0.05}} {
		w, _ := scratch.Values(m.method, k, m.eps)
		g, _ := got.Values(m.method, k, m.eps)
		requireSameValueBits(t, w, g, "removed "+m.method)
	}

	if _, err := e.WithRemoved(make([]int, child.N())); err == nil {
		t.Fatal("removing everything succeeded")
	}
	if _, err := e.WithRemoved([]int{5, 5}); err == nil {
		t.Fatal("duplicate removal accepted")
	}
}

// TestIncrementalDeltaSequenceMatchesSingleNode is the end-to-end property:
// any sequence of registry deltas (appends, removes, mixed), valued through
// the incremental orchestrator, yields values bit-identical to a fresh
// single-node Valuer on the final dataset — for both methods — while the
// counters show only delta work after the first build.
func TestIncrementalDeltaSequenceMatchesSingleNode(t *testing.T) {
	reg, err := registry.New(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(NewRankCache(0), reg)
	test := knnshapley.SynthMNIST(7, 101)
	const k = 5

	cur := knnshapley.SynthMNIST(70, 100)
	h, _, err := reg.Put(cur.Clone())
	if err != nil {
		t.Fatal(err)
	}
	curID := h.ID()
	h.Release()

	rng := rand.New(rand.NewPCG(9, 9))
	value := func(method string, eps float64) []float64 {
		t.Helper()
		got, err := inc.Values(context.Background(), Request{
			Train: cur, Test: test, TrainID: curID,
			Method: method, Eps: eps, K: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	requireSameValueBits(t, singleNodeValues(t, cur, test, k, "exact", 0), value("exact", 0), "seed exact")
	if st := inc.Stats(); st.FromScratch != 1 || st.Patches != 0 {
		t.Fatalf("after seed valuation: %+v", st)
	}

	steps := []registry.Delta{
		{Append: knnshapley.SynthMNIST(1, 201)},
		{Remove: []int{3, 40, 69}},
		{Append: knnshapley.SynthMNIST(12, 202), Remove: []int{0, 5}},
		{Append: knnshapley.SynthMNIST(2, 203)},
	}
	for i, d := range steps {
		h, _, _, err := reg.ApplyDelta(curID, d)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cur, curID = h.Dataset(), h.ID()
		h.Release()
		requireSameValueBits(t, singleNodeValues(t, cur, test, k, "exact", 0), value("exact", 0), "exact")
		requireSameValueBits(t, singleNodeValues(t, cur, test, k, "truncated", 0.04), value("truncated", 0.04), "truncated")
	}
	st := inc.Stats()
	if st.FromScratch != 1 {
		t.Fatalf("delta steps rebuilt from scratch: %+v", st)
	}
	if st.Patches != int64(len(steps)) {
		t.Fatalf("patches = %d, want %d: %+v", st.Patches, len(steps), st)
	}
	// 1 seed + len(steps) × (exact replay + truncated replay off the same
	// entry).
	if want := int64(1 + 2*len(steps)); st.Replays != want {
		t.Fatalf("replays = %d, want %d", st.Replays, want)
	}

	// Longer randomized tail: value only at the end, so intermediate entries
	// chain patch-on-patched.
	for step := 0; step < 6; step++ {
		var d registry.Delta
		switch {
		case cur.N() > 10 && rng.IntN(2) == 0:
			d.Remove = []int{rng.IntN(cur.N())}
		default:
			d.Append = knnshapley.SynthMNIST(1+rng.IntN(4), uint64(300+step))
		}
		h, _, _, err := reg.ApplyDelta(curID, d)
		if err != nil {
			t.Fatal(err)
		}
		cur, curID = h.Dataset(), h.ID()
		h.Release()
		requireSameValueBits(t, singleNodeValues(t, cur, test, k, "exact", 0), value("exact", 0), "random tail")
	}
	if st := inc.Stats(); st.FromScratch != 1 {
		t.Fatalf("random tail rebuilt from scratch: %+v", st)
	}
}

// TestIncrementalFallsBackWithoutParent pins the degradation contract: an
// evicted (or never-built) parent entry silently becomes a from-scratch
// build with identical values.
func TestIncrementalFallsBackWithoutParent(t *testing.T) {
	reg, err := registry.New(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(NewRankCache(0), reg)
	test := knnshapley.SynthMNIST(4, 51)
	parent := knnshapley.SynthMNIST(30, 50)
	h, _, err := reg.Put(parent.Clone())
	if err != nil {
		t.Fatal(err)
	}
	parentID := h.ID()
	h.Release()

	ch, _, _, err := reg.ApplyDelta(parentID, registry.Delta{Append: knnshapley.SynthMNIST(3, 52)})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Release()
	child := ch.Dataset()

	// No parent entry cached: lineage exists but cannot help.
	got, err := inc.Values(context.Background(), Request{Train: child, Test: test, TrainID: ch.ID(), Method: "exact", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	requireSameValueBits(t, singleNodeValues(t, child, test, 5, "exact", 0), got, "orphan child")
	if st := inc.Stats(); st.FromScratch != 1 || st.Patches != 0 {
		t.Fatalf("orphan child stats %+v", st)
	}

	// A negative budget disables caching: the parent, the child and the
	// parent again are each a from-scratch build, with the same values.
	off := NewIncremental(NewRankCache(-1), reg)
	for i, r := range []Request{
		{Train: parent, Test: test, TrainID: parentID, Method: "exact", K: 5},
		{Train: child, Test: test, TrainID: ch.ID(), Method: "exact", K: 5},
		{Train: parent, Test: test, TrainID: parentID, Method: "exact", K: 5},
	} {
		got, err := off.Values(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		requireSameValueBits(t, singleNodeValues(t, r.Train, test, 5, "exact", 0), got, "uncached")
		if st := off.Stats(); st.FromScratch != int64(i+1) || st.Patches != 0 {
			t.Fatalf("uncached valuation %d stats %+v, want only from-scratch builds", i, st)
		}
	}
}

func TestRankCacheLRUAndStats(t *testing.T) {
	mk := func(n int) *RankEntry {
		return &RankEntry{n: n, ntest: 1, bytes: int64(n)}
	}
	// A budget of 100 gives probation 12 bytes, or its newest entry. Each of
	// a and b is read once right after its Put, which promotes it; LRU order
	// then rules the protected segment.
	c := NewRankCache(100)
	for _, key := range []RankKey{"a", "b"} {
		c.Put(key, mk(40))
		if c.Get(key) == nil {
			t.Fatalf("%s missing right after its Put", key)
		}
	}
	if c.Get("a") == nil { // refresh a
		t.Fatal("a missing")
	}
	c.Put("c", mk(40)) // over budget: evicts b, the protected LRU
	if c.Get("b") != nil {
		t.Fatal("b survived eviction")
	}
	if c.Get("a") == nil || c.Get("c") == nil {
		t.Fatal("a or c evicted out of order")
	}
	c.Put("a", mk(10)) // replace shrinks bytes
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 50 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Hits != 5 || st.Misses != 1 || st.Promotions != 3 || st.ProbationEntries != 0 || st.ProbationBytes != 0 {
		t.Fatalf("hit/miss/promotion %+v", st)
	}
	// Oversized entries are not retained but do not error.
	c.Put("huge", mk(1000))
	if c.Get("huge") != nil {
		t.Fatal("oversized entry retained")
	}
	// A negative budget keeps nothing; only 0 selects the default.
	off := NewRankCache(-1)
	off.Put("a", mk(0))
	if off.Get("a") != nil {
		t.Fatal("negative-budget cache retained an entry")
	}
	if st := off.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Budget != -1 {
		t.Fatalf("negative-budget stats %+v", st)
	}
	if b := NewRankCache(0).Stats().Budget; b != DefaultRankCacheBudget {
		t.Fatalf("zero budget = %d, want the default %d", b, DefaultRankCacheBudget)
	}
	if got := NewRankKey("t1", "t2", 5, "", ""); got != NewRankKey("t1", "t2", 5, "l2", "float64") {
		t.Fatalf("default normalization broken: %q", got)
	}
}

// TestRankCacheOneShotPutsStayInProbation: entries that are never read
// again hold at most the probation share of the budget, or the one newest
// entry when that alone is larger, whatever their number and sizes.
func TestRankCacheOneShotPutsStayInProbation(t *testing.T) {
	const budget = 800
	c := NewRankCache(budget)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		n := 1 + rng.IntN(60)
		if i%50 == 49 {
			n = budget/probationShare + 1 + rng.IntN(budget/2) // over the share on its own
		}
		c.Put(RankKey(fmt.Sprint("one-shot ", i)), &RankEntry{n: n, ntest: 1, bytes: int64(n)})
		st := c.Stats()
		if limit := max(int64(budget/probationShare), int64(n)); st.Bytes > limit {
			t.Fatalf("after put %d (%d bytes): %d bytes held, want at most %d: %+v", i, n, st.Bytes, limit, st)
		}
		if st.Entries != st.ProbationEntries || st.Bytes != st.ProbationBytes || st.Promotions != 0 {
			t.Fatalf("after put %d: one-shot entries outside probation: %+v", i, st)
		}
	}
}

// TestRankCacheReusedEntrySurvivesFlood: an entry read once after its Put
// is protected, so a flood of one-shot entries far past the budget evicts
// only its own kind; an entry never reused goes with the flood.
func TestRankCacheReusedEntrySurvivesFlood(t *testing.T) {
	mk := func(n int) *RankEntry { return &RankEntry{n: n, ntest: 1, bytes: int64(n)} }
	c := NewRankCache(800)
	c.Put("reused", mk(300))
	if c.Get("reused") == nil {
		t.Fatal("reused entry missing right after its Put")
	}
	c.Put("unread", mk(30))
	for i := 0; i < 1000; i++ {
		c.Put(RankKey(fmt.Sprint("flood ", i)), mk(40))
	}
	if c.Get("reused") == nil {
		t.Fatal("the reused entry was evicted by one-shot entries")
	}
	if c.Get("unread") != nil {
		t.Fatal("an entry never reused outlived a flood of one-shot entries")
	}
	st := c.Stats()
	if st.Entries-st.ProbationEntries != 1 || st.ProbationBytes > 800/probationShare || st.Promotions != 1 {
		t.Fatalf("after the flood: %+v", st)
	}
}

// TestIncrementalDeltaChainSurvivesOneShots interleaves a chain of appends
// with one-shot valuations, fewer per step than the probation segment holds:
// every link is read once as its child's patch parent, so the chain patches
// at every step while the one-shot rankings come and go.
func TestIncrementalDeltaChainSurvivesOneShots(t *testing.T) {
	reg, err := registry.New(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const k, tp = 5, 4
	cur := knnshapley.SynthMNIST(60, 70)
	// About five 12·N·tp-byte rankings of the final N fit the probation
	// share; two one-shots and the chain's newest link enter it per step.
	const steps, oneShots = 6, 2
	finalN := cur.N() + 2*steps
	inc := NewIncremental(NewRankCache(probationShare*5*12*int64(finalN)*tp), reg)
	test := knnshapley.SynthMNIST(tp, 71)
	h, _, err := reg.Put(cur.Clone())
	if err != nil {
		t.Fatal(err)
	}
	curID := h.ID()
	h.Release()
	value := func(train, test *dataset.Dataset, trainID, testID string) {
		t.Helper()
		got, err := inc.Values(context.Background(), Request{Train: train, Test: test, TrainID: trainID, TestID: testID, Method: "exact", K: k})
		if err != nil {
			t.Fatal(err)
		}
		requireSameValueBits(t, singleNodeValues(t, train, test, k, "exact", 0), got, trainID+" against "+testID)
	}
	value(cur, test, curID, "chain")
	for step := 0; step < steps; step++ {
		for i := 0; i < oneShots; i++ {
			seed := uint64(100 + oneShots*step + i)
			value(cur, knnshapley.SynthMNIST(tp, seed), curID, fmt.Sprint("one-shot ", seed))
		}
		h, _, _, err := reg.ApplyDelta(curID, registry.Delta{Append: knnshapley.SynthMNIST(2, uint64(200+step))})
		if err != nil {
			t.Fatal(err)
		}
		cur, curID = h.Dataset(), h.ID()
		h.Release()
		value(cur, test, curID, "chain")
		if st := inc.Stats(); st.Patches != int64(step+1) {
			t.Fatalf("step %d: %d patches, want %d: %+v %+v", step, st.Patches, step+1, st, inc.Cache().Stats())
		}
	}
	st, cs := inc.Stats(), inc.Cache().Stats()
	if st.FromScratch != 1+steps*oneShots {
		t.Fatalf("from-scratch builds %d, want the seed plus %d one-shots: %+v", st.FromScratch, steps*oneShots, st)
	}
	if cs.Promotions != steps {
		t.Fatalf("promotions %d, want one per patch parent (%d): %+v", cs.Promotions, steps, cs)
	}
}

// TestRankCacheConcurrent drives one cache from several goroutines, each
// putting, reading back and re-reading keys that overlap the others', for
// the race detector; the byte accounting must still add up.
func TestRankCacheConcurrent(t *testing.T) {
	c := NewRankCache(4000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := RankKey(fmt.Sprint(i % 37))
				c.Put(key, &RankEntry{n: 1 + (g+i)%90, ntest: 1, bytes: int64(1 + (g+i)%90)})
				c.Get(key)
				c.Get(RankKey(fmt.Sprint((i + 5) % 37)))
				c.Stats()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	var bytes, prob int64
	for _, seg := range []*list.List{c.prob, c.prot} {
		for el := seg.Front(); el != nil; el = el.Next() {
			it := el.Value.(*rankItem)
			bytes += it.entry.Bytes()
			if seg == c.prob {
				prob += it.entry.Bytes()
			}
		}
	}
	if st.Bytes != bytes || st.ProbationBytes != prob || st.Bytes > st.Budget || st.Entries != len(c.items) {
		t.Fatalf("accounting %+v, but the segments hold %d bytes (%d in probation) in %d+%d entries",
			st, bytes, prob, c.prob.Len(), c.prot.Len())
	}
}
