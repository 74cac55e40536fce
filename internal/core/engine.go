package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"knnshapley/internal/kheap"
	"knnshapley/internal/knn"
	"knnshapley/internal/par"
	"knnshapley/internal/vec"
)

// DefaultBatchSize is the number of work items an Engine materializes at
// once when EngineConfig.BatchSize is zero. Together with a streaming
// source it bounds peak memory at BatchSize·N distances instead of Ntest·N.
const DefaultBatchSize = 64

// reduceGrain is the least reduce work, in additions (batch items × value
// indices), that RunSum gives each goroutine when it splits a batch's
// ordered reduce by value-index ranges. On a 2-vCPU Xeon host a two-way
// split took 1.09–1.29× the serial time at 6.5e4 additions per goroutine,
// 0.77–0.94× at 1.6e5 and 0.53–0.66× at 2e5.
const reduceGrain = 1 << 18

// EngineConfig holds the execution knobs shared by every valuation backend.
type EngineConfig struct {
	// Workers bounds the goroutines computing at once (0 = GOMAXPROCS):
	// the kernels, a large batch's ordered reduce and, when the Source is a
	// knn.Stream given the same count (Stream.SetWorkers), its distance scan.
	Workers int
	// BatchSize bounds how many work items are in flight at once
	// (0 = DefaultBatchSize).
	BatchSize int
	// Progress, when non-nil, is called after every completed batch with the
	// cumulative number of work items reduced so far. It runs on the
	// goroutine driving Run, never concurrently with itself, and must be
	// cheap: the engine does not produce the next batch until it returns.
	Progress func(done int)
}

// NumWorkers returns Workers resolved: GOMAXPROCS when it is zero.
func (c EngineConfig) NumWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c EngineConfig) batch() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// Source streams work items in batches. NextBatch fills dst with up to
// len(dst) items and returns how many it produced; 0 means the stream is
// exhausted. Sources must return ctx.Err() promptly once ctx is canceled —
// together with the Engine's own per-batch check this bounds how long a
// canceled run keeps computing. The Engine always finishes a batch
// completely before asking for the next one, so sources may reuse the
// backing buffers of the items they hand out (knn.Stream does exactly that).
type Source[T any] interface {
	NextBatch(ctx context.Context, dst []T) (int, error)
}

// Kernel is a per-item valuation algorithm. One Kernel value is shared by
// all workers, so it must be safe for concurrent Compute calls; per-call
// temporaries come from the worker-owned Scratch.
type Kernel[T any] interface {
	// OutLen is the length of the value vector produced per item (the
	// training-set size for per-point values, the seller count for seller
	// values, and so on).
	OutLen() int
	// Compute writes item's value vector into dst (length OutLen, zeroed
	// by the Engine). idx is the item's global position in the stream,
	// which deterministic kernels (e.g. Monte Carlo) use for seeding.
	// Long-running kernels (the Monte-Carlo permutation loops) must poll
	// ctx and return ctx.Err() so cancellation aborts mid-item, not just
	// between batches.
	Compute(ctx context.Context, idx int, item T, s *Scratch, dst []float64) error
}

// SliceSource adapts an in-memory slice to the Source interface.
type SliceSource[T any] struct {
	items []T
	pos   int
}

// NewSliceSource returns a Source yielding items in order.
func NewSliceSource[T any](items []T) *SliceSource[T] {
	return &SliceSource[T]{items: items}
}

// NextBatch implements Source.
func (s *SliceSource[T]) NextBatch(ctx context.Context, dst []T) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := copy(dst, s.items[s.pos:])
	s.pos += n
	return n, nil
}

// Engine is the single execution layer behind every Shapley backend: a
// bounded worker pool that streams work items from a Source in batches of
// at most BatchSize, dispatches each item to a pluggable Kernel with a
// per-worker Scratch, and reduces the per-item value vectors into their
// running average in deterministic stream order.
//
// The pool of Workers goroutines is created once per run, before any work
// is enqueued (compare the seed's averageOver, which spawned one goroutine
// per test point up front and only then throttled them on a semaphore).
// The driving goroutine produces each batch and reduces it while the pool
// waits; a large batch's reduce is split by value-index ranges over up to
// Workers goroutines, so at most Workers goroutines compute at once.
// Because every value index still sums the items in stream order, the
// floating-point sum is bit-identical to a sequential loop over the items,
// for any Workers and BatchSize.
type Engine[T any] struct {
	cfg EngineConfig
}

// NewEngine returns an Engine with the given configuration.
func NewEngine[T any](cfg EngineConfig) *Engine[T] { return &Engine[T]{cfg: cfg} }

// Run streams src through kern and returns the average of the per-item
// value vectors, or nil when the source is empty. Cancellation of ctx
// aborts the run within one engine batch and returns ctx.Err().
func (e *Engine[T]) Run(ctx context.Context, src Source[T], kern Kernel[T]) ([]float64, error) {
	sv, count, err := e.RunSum(ctx, src, kern)
	if err != nil || count == 0 {
		return nil, err
	}
	inv := 1 / float64(count)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// RunSum is Run without the final averaging: it returns the item count and
// the plain sum of the per-item vectors, for callers that weight or
// normalize differently.
func (e *Engine[T]) RunSum(ctx context.Context, src Source[T], kern Kernel[T]) ([]float64, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := kern.OutLen()
	batch := e.cfg.batch()
	workers := e.cfg.NumWorkers()

	acc := make([]float64, out)
	items := make([]T, batch)
	results := make([][]float64, batch)

	type job struct {
		slot, idx int
		item      T
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		go func() {
			s := NewScratch()
			for jb := range jobs {
				dst := results[jb.slot]
				for i := range dst {
					dst[i] = 0
				}
				if err := kern.Compute(ctx, jb.idx, jb.item, s, dst); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
				wg.Done()
			}
		}()
	}
	defer close(jobs)

	total := 0
	for {
		// Per-batch cancellation point: a canceled context stops the run
		// before the next batch is produced (kernels that loop for a long
		// time poll ctx themselves).
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		nb, err := src.NextBatch(ctx, items)
		if err != nil {
			return nil, 0, err
		}
		if nb == 0 {
			break
		}
		for i := 0; i < nb; i++ {
			if results[i] == nil {
				results[i] = make([]float64, out)
			}
		}
		wg.Add(nb)
		for i := 0; i < nb; i++ {
			jobs <- job{slot: i, idx: total + i, item: items[i]}
		}
		wg.Wait()
		mu.Lock()
		err = firstErr
		mu.Unlock()
		if err != nil {
			return nil, 0, err
		}
		// Ordered reduction: each value index adds the items in slot order,
		// which is stream order, so the sum is bit-identical to a sequential
		// pass for any split and any scheduling. The workers are idle here,
		// so the split uses up to that many goroutines.
		par.For(out, par.Parts(nb*out, reduceGrain, workers), func(lo, hi int) {
			a := acc[lo:hi]
			for _, r := range results[:nb] {
				for j, v := range r[lo:hi] {
					a[j] += v
				}
			}
		})
		total += nb
		if e.cfg.Progress != nil {
			e.cfg.Progress(total)
		}
	}
	return acc, total, nil
}

// Scratch holds per-worker reusable buffers so kernels do not allocate per
// test point. Buffers grow on demand and are reused across Compute calls;
// slot indices partition the float64 buffers between independent uses
// within one kernel invocation.
type Scratch struct {
	order  []int
	ints   []int
	floats [4][]float64
	packs  []uint32
	heap   *kheap.Heap
	sorter vec.DistSorter
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// Ints returns a reusable index buffer resized to n.
func (s *Scratch) Ints(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	s.ints = s.ints[:n]
	return s.ints
}

// Floats returns the reusable float64 buffer in the given slot (0..3)
// resized to n. Distinct slots never alias.
func (s *Scratch) Floats(slot, n int) []float64 {
	if cap(s.floats[slot]) < n {
		s.floats[slot] = make([]float64, n)
	}
	s.floats[slot] = s.floats[slot][:n]
	return s.floats[slot]
}

// OrderOf returns tp's distance ordering using the scratch index buffer
// and the worker-owned sorter (same ordering as tp.OrderInto, zero
// steady-state allocation).
func (s *Scratch) OrderOf(tp *knn.TestPoint) []int {
	s.order = s.sorter.ArgsortInto(s.order, tp.Dist)
	return s.order
}

// Packed returns the first min(limit, N) entries of tp's packed ranking in
// the scratch buffer: rank r holds Pack(offset+i, tp.Correct[i]) for the
// r-th nearest training index i by (distance, index). When limit >= N the
// worker-owned sorter builds the whole ranking in the passes that sort it;
// otherwise heap partial selection finds the identical prefix in
// O(N + limit·log limit) and it is packed after. offset is 0 on a single
// node and a shard's global offset in a cluster shard report.
func (s *Scratch) Packed(tp *knn.TestPoint, limit, offset int) []uint32 {
	if limit >= tp.N() {
		s.packs = s.sorter.PackedInto(s.packs, tp.Dist, tp.Correct, offset, CorrectBit)
		return s.packs
	}
	s.order = s.heapOf(limit).TopKInto(s.order, tp.Dist)
	l := s.packBuf(len(s.order))
	for r, id := range s.order {
		l[r] = Pack(offset+id, tp.Correct[id])
	}
	return l
}

// heapOf returns the worker-owned heap, reallocated when it does not retain
// k items: partial selection and subset utilities reuse one heap instead of
// allocating one per call.
func (s *Scratch) heapOf(k int) *kheap.Heap {
	if s.heap == nil || s.heap.K() != k {
		s.heap = kheap.New(k)
	}
	return s.heap
}

// packBuf returns the reusable packed-ranking buffer resized to n.
func (s *Scratch) packBuf(n int) []uint32 {
	if cap(s.packs) < n {
		s.packs = make([]uint32, n)
	}
	s.packs = s.packs[:n]
	return s.packs
}

// packedLabels packs retrieved training ids, flagging those whose label
// equals label, into the scratch buffer.
func (s *Scratch) packedLabels(ids, labels []int, label int) []uint32 {
	l := s.packBuf(len(ids))
	for r, id := range ids {
		l[r] = Pack(id, labels[id] == label)
	}
	return l
}

// checkTrainSize verifies that tp matches the engine-wide training size n,
// mirroring the seed's "test points disagree on training size" guard.
func checkTrainSize(tp *knn.TestPoint, n int) error {
	if tp.N() != n {
		return fmt.Errorf("core: test points disagree on training size: %d != %d", tp.N(), n)
	}
	return nil
}
