package cluster

import (
	"container/list"
	"fmt"
	"sync"
)

// DefaultRankCacheBudget bounds the neighbor-rank cache's memory when the
// serving layer does not override it. A full-ranking entry costs 12 bytes
// per (training point, test point) pair, so 256 MiB holds a handful of
// N=10⁶-pair sessions.
const DefaultRankCacheBudget = 256 << 20

// RankKey identifies one cached neighbor ranking: which training content was
// ranked against which test content, under which session knobs. Everything
// that changes the ordering or the packed correctness bits is part of the
// key; k rides along because the truncated prefix length and the term table
// depend on it, keeping one entry per (k, method family) from aliasing.
type RankKey string

// NewRankKey builds the cache key from registry IDs and the session knobs,
// normalizing the empty metric and precision spellings to their defaults so
// equivalent requests share an entry.
func NewRankKey(trainID, testID string, k int, metric, precision string) RankKey {
	if metric == "" {
		metric = "l2"
	}
	if precision == "" {
		precision = "float64"
	}
	return RankKey(fmt.Sprintf("%s|%s|k=%d|%s|%s", trainID, testID, k, metric, precision))
}

// RankCacheStats snapshots the cache counters: the "rankCache" block of
// svserver's /statz and, under the prom names whose help says what each
// counts, of /metrics. Puts and Budget stay off /metrics.
type RankCacheStats struct {
	Hits      int64 `json:"hits" prom:"svserver_rank_cache_hits_total,Rank-cache lookups served."`
	Misses    int64 `json:"misses" prom:"svserver_rank_cache_misses_total,Rank-cache lookups missed."`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions" prom:"svserver_rank_cache_evictions_total,Rank-cache entries evicted by the byte budget."`
	Entries   int   `json:"entries" prom:"svserver_rank_cache_entries,Cached neighbor-ranking entries."`
	Bytes     int64 `json:"bytes" prom:"svserver_rank_cache_bytes,Bytes of cached neighbor rankings."`
	Budget    int64 `json:"budget"`
}

// RankCache is a byte-budget LRU of immutable RankEntry values. Entries are
// shared by reference — replays never mutate them — so Get needs no pinning:
// an evicted entry stays valid for callers already holding it and is
// reclaimed by the garbage collector when the last replay drops it.
type RankCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[RankKey]*list.Element

	st RankCacheStats // the counters; Stats fills in the gauges
}

type rankItem struct {
	key   RankKey
	entry *RankEntry
}

// NewRankCache builds a cache with the given byte budget; 0 selects
// DefaultRankCacheBudget, and a negative budget keeps nothing (Put refuses
// every entry larger than the budget), so every valuation rescans.
func NewRankCache(budget int64) *RankCache {
	if budget == 0 {
		budget = DefaultRankCacheBudget
	}
	return &RankCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[RankKey]*list.Element),
	}
}

// Get returns the cached entry for key, marking it most recently used.
func (c *RankCache) Get(key RankKey) *RankEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.st.Misses++
		return nil
	}
	c.st.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*rankItem).entry
}

// Put stores e under key, evicting least-recently-used entries past the byte
// budget. An entry larger than the whole budget is not retained (the caller
// keeps its reference; only reuse is lost). Replacing a key updates bytes in
// place.
func (c *RankCache) Put(key RankKey, e *RankEntry) {
	if e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Puts++
	if el, ok := c.items[key]; ok {
		it := el.Value.(*rankItem)
		c.bytes += e.Bytes() - it.entry.Bytes()
		it.entry = e
		c.ll.MoveToFront(el)
	} else if e.Bytes() > c.budget {
		return
	} else {
		c.items[key] = c.ll.PushFront(&rankItem{key: key, entry: e})
		c.bytes += e.Bytes()
	}
	for c.bytes > c.budget && c.ll.Len() > 1 {
		back := c.ll.Back()
		it := back.Value.(*rankItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.entry.Bytes()
		c.st.Evictions++
	}
}

// Stats snapshots the counters.
func (c *RankCache) Stats() RankCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries, st.Bytes, st.Budget = c.ll.Len(), c.bytes, c.budget
	return st
}
