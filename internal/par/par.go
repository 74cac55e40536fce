// Package par runs a loop over an index range as a few contiguous chunks on
// separate goroutines. It is the one fork-join helper behind the split
// distance scan (knn.Stream) and the split ordered reduce (core.Engine).
package par

import "sync"

// Parts returns how many chunks a loop of work units should be split into:
// one per full grain of work, at most workers, at least one. Loops smaller
// than two grains therefore run serially and start no goroutine.
func Parts(work, grain, workers int) int {
	return max(1, min(workers, work/grain))
}

// For splits [0, n) into parts contiguous chunks of near-equal length and
// calls f(lo, hi) once per chunk, each on its own goroutine except the last,
// which runs on the caller. It returns after every call has returned. With
// parts <= 1 (or n <= 1) it is exactly f(0, n).
func For(n, parts int, f func(lo, hi int)) {
	parts = min(parts, n)
	if parts <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 0; p < parts-1; p++ {
		lo, hi := n*p/parts, n*(p+1)/parts
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	f(n*(parts-1)/parts, n)
	wg.Wait()
}
