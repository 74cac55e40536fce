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
// counts, of /metrics. Puts and Budget stay off /metrics. Entries and Bytes
// cover both segments; the Probation fields are the probation segment's
// share of them.
type RankCacheStats struct {
	Hits             int64 `json:"hits" prom:"svserver_rank_cache_hits_total,Rank-cache lookups served."`
	Misses           int64 `json:"misses" prom:"svserver_rank_cache_misses_total,Rank-cache lookups missed."`
	Puts             int64 `json:"puts"`
	Evictions        int64 `json:"evictions" prom:"svserver_rank_cache_evictions_total,Rank-cache entries evicted by the byte budget."`
	Promotions       int64 `json:"promotions" prom:"svserver_rank_cache_promotions_total,Rank-cache entries moved from probation to protected by their first reuse."`
	Entries          int   `json:"entries" prom:"svserver_rank_cache_entries,Cached neighbor-ranking entries."`
	Bytes            int64 `json:"bytes" prom:"svserver_rank_cache_bytes,Bytes of cached neighbor rankings."`
	ProbationEntries int   `json:"probationEntries" prom:"svserver_rank_cache_probation_entries,Cached neighbor rankings not yet reused."`
	ProbationBytes   int64 `json:"probationBytes" prom:"svserver_rank_cache_probation_bytes,Bytes of cached neighbor rankings not yet reused."`
	Budget           int64 `json:"budget"`
}

// probationShare sizes the probation segment: budget/probationShare bytes.
const probationShare = 8

// RankCache is a byte-budget segmented LRU of immutable RankEntry values. A
// new entry enters the probation segment, which holds at most
// budget/probationShare bytes but always keeps its newest entry; the
// entry's first reuse (a Get hit: a replay, or a lineage patch off it)
// moves it to the protected segment, and protected entries are evicted
// least recently used first once the whole cache is over budget. Rankings
// built for one valuation and never read again thus hold an eighth of the
// budget (or the one newest ranking, if larger), while every link of a
// delta chain, read once as its child's patch parent, is protected.
//
// Entries are shared by reference — replays never mutate them — so Get
// needs no pinning: an evicted entry stays valid for callers already
// holding it and is reclaimed by the garbage collector when the last replay
// drops it.
type RankCache struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64      // both segments
	probBytes int64      // the probation segment
	prob      *list.List // front = most recently used
	prot      *list.List // front = most recently used
	items     map[RankKey]*list.Element

	st RankCacheStats // the counters; Stats fills in the gauges
}

type rankItem struct {
	key       RankKey
	entry     *RankEntry
	protected bool
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
		prob:   list.New(),
		prot:   list.New(),
		items:  make(map[RankKey]*list.Element),
	}
}

// segment is the list holding it.
func (c *RankCache) segment(it *rankItem) *list.List {
	if it.protected {
		return c.prot
	}
	return c.prob
}

// Get returns the cached entry for key, marking it most recently used. A
// hit on a probation entry is its first reuse and promotes it.
func (c *RankCache) Get(key RankKey) *RankEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.st.Misses++
		return nil
	}
	c.st.Hits++
	it := el.Value.(*rankItem)
	if it.protected {
		c.prot.MoveToFront(el)
	} else {
		c.prob.Remove(el)
		c.probBytes -= it.entry.Bytes()
		it.protected = true
		c.items[key] = c.prot.PushFront(it)
		c.st.Promotions++
	}
	return it.entry
}

// Put stores e under key, in the probation segment when the key is new,
// then evicts past the budgets. An entry larger than the whole budget is
// not retained (the caller keeps its reference; only reuse is lost).
// Replacing a key updates bytes in place and keeps the entry's segment.
func (c *RankCache) Put(key RankKey, e *RankEntry) {
	if e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Puts++
	el, ok := c.items[key]
	if ok {
		it := el.Value.(*rankItem)
		d := e.Bytes() - it.entry.Bytes()
		c.bytes += d
		if !it.protected {
			c.probBytes += d
		}
		it.entry = e
		c.segment(it).MoveToFront(el)
	} else if e.Bytes() > c.budget {
		return
	} else {
		el = c.prob.PushFront(&rankItem{key: key, entry: e})
		c.items[key] = el
		c.bytes += e.Bytes()
		c.probBytes += e.Bytes()
	}
	c.trim(el)
}

// trim evicts, never the entry keep that Put just stored: probation's least
// recently used entries down to its share, then, while the whole cache is
// over budget, protected ones (probation's once none is left).
func (c *RankCache) trim(keep *list.Element) {
	for c.probBytes > c.budget/probationShare {
		if back := c.prob.Back(); back != nil && back != keep {
			c.evict(back)
		} else {
			break
		}
	}
	for c.bytes > c.budget {
		back := c.prot.Back()
		if back == nil || back == keep {
			back = c.prob.Back()
		}
		if back == nil || back == keep {
			return
		}
		c.evict(back)
	}
}

func (c *RankCache) evict(el *list.Element) {
	it := el.Value.(*rankItem)
	c.segment(it).Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.entry.Bytes()
	if !it.protected {
		c.probBytes -= it.entry.Bytes()
	}
	c.st.Evictions++
}

// Stats snapshots the counters.
func (c *RankCache) Stats() RankCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries, st.Bytes, st.Budget = len(c.items), c.bytes, c.budget
	st.ProbationEntries, st.ProbationBytes = c.prob.Len(), c.probBytes
	return st
}
