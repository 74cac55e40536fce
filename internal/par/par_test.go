package par

import (
	"sync"
	"testing"
)

func TestParts(t *testing.T) {
	for _, c := range []struct{ work, grain, workers, want int }{
		{0, 10, 4, 1},
		{19, 10, 4, 1},
		{20, 10, 4, 2},
		{1000, 10, 4, 4},
		{1000, 10, 0, 1},
	} {
		if got := Parts(c.work, c.grain, c.workers); got != c.want {
			t.Errorf("Parts(%d, %d, %d) = %d, want %d", c.work, c.grain, c.workers, got, c.want)
		}
	}
}

// For must call f on contiguous chunks that cover [0, n) exactly once: one
// chunk per part, never more than n chunks, and at least one call.
func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, parts := range []int{0, 1, 2, 3, 8, 200} {
			var mu sync.Mutex
			hits := make([]int, n)
			calls := 0
			For(n, parts, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			if want := max(1, min(parts, n)); calls != want {
				t.Errorf("For(%d, %d): %d calls, want %d", n, parts, calls, want)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("For(%d, %d): index %d covered %d times", n, parts, i, h)
				}
			}
		}
	}
}
