// Job-queue valuation: the serving pattern behind cmd/svserver, shown
// in-process. A bounded-worker job manager (internal/jobs) runs valuations
// as cancellable background jobs with live progress — test points processed,
// fed by the engine's per-batch callback — and remembers results in an LRU
// cache keyed by content fingerprints, so an identical resubmission is
// answered without touching the engine. This is the systems half of the
// paper's pitch: once KNN-Shapley is cheap enough to serve interactively
// (Theorem 1's O(N log N)), a daemon still needs job states, cancellation
// and a memory of what it already computed to absorb concurrent traffic.
//
// Run with: go run ./examples/jobqueue
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	knnshapley "knnshapley"
	"knnshapley/internal/jobs"
)

func main() {
	train := knnshapley.SynthMNIST(20000, 1)
	test := knnshapley.SynthMNIST(256, 2)

	mgr := jobs.New(jobs.Config{Workers: 2})
	defer mgr.Close()

	// The manager also caches sessions by training-set fingerprint, so
	// concurrent requests over the same payload validate and flatten it
	// exactly once (and would share lazily built LSH/k-d indexes).
	key := fmt.Sprintf("%016x|k=5", train.Fingerprint())
	valuer, err := mgr.Valuer(key, func() (*knnshapley.Valuer, error) {
		return knnshapley.New(train, knnshapley.WithK(5))
	})
	if err != nil {
		log.Fatal(err)
	}

	spec := jobs.Spec{
		// Everything that shapes the values goes into the cache key.
		CacheKey:   fmt.Sprintf("%016x|%016x|exact|k=5", train.Fingerprint(), test.Fingerprint()),
		TotalUnits: test.N(),
		// The job context already carries the progress hook; handing it to
		// the Valuer is all that is needed for progress to flow.
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return valuer.Exact(ctx, test)
		},
	}

	// 1. Submit and watch the lifecycle: queued → running → done, with
	// progress ticking up as engine batches complete.
	job, err := mgr.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s submitted (N=%d, %d test points)\n", job.ID(), train.N(), test.N())
	poll := time.NewTimer(150 * time.Millisecond) // reused across iterations, not a fresh time.After per tick
	defer poll.Stop()
	for done := false; !done; {
		select {
		case <-job.Done():
			done = true
		case <-poll.C:
			poll.Reset(150 * time.Millisecond)
		}
		s := job.Snapshot()
		fmt.Printf("  %-8s %3d/%3d test points\n", s.State, s.Done, s.Total)
	}
	rep, err := job.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v: Σsv = %.4f (= ν(D) − ν(∅)), fingerprint %016x\n\n",
		rep.Duration.Round(time.Millisecond), sum(rep.Values), rep.Fingerprint)

	// 2. Resubmit the identical request: answered from the result cache,
	// born done, no engine run.
	again, err := mgr.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	s := again.Snapshot()
	fmt.Printf("resubmission %s: state=%s cacheHit=%v (no recomputation)\n\n", again.ID(), s.State, s.CacheHit)

	// 3. Cancel a job mid-run: the engine observes the canceled context
	// within one batch and the worker is released.
	big := knnshapley.SynthMNIST(4096, 3)
	slow, err := mgr.Submit(jobs.Spec{
		TotalUnits: big.N(),
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			return valuer.MonteCarlo(ctx, big, knnshapley.MCParams{
				Bound: knnshapley.Fixed, T: 1 << 20, Seed: 7, // far beyond any budget we'd wait for
			})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it start grinding
	start := time.Now()
	mgr.Cancel(slow.ID())
	<-slow.Done()
	fmt.Printf("canceled %s while %s: stopped in %v\n",
		slow.ID(), jobs.StateRunning, time.Since(start).Round(time.Millisecond))

	st := mgr.Stats()
	fmt.Printf("\nmanager: runs=%d cacheHits=%d valuerBuilds=%d retainedJobs=%d\n",
		st.Runs, st.CacheHits, st.ValuerBuilds, st.Jobs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
