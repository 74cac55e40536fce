package jobs

import "container/list"

// lru is a tiny string-keyed least-recently-used cache. It is not
// goroutine-safe; the Manager serializes access under its own mutex.
type lru[V any] struct {
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts or refreshes key, evicting the least recently used entry once
// the cache exceeds its capacity.
func (c *lru[V]) add(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[V]).key)
	}
}

// each calls fn on every cached value, most recently used first.
func (c *lru[V]) each(fn func(V)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*lruItem[V]).val)
	}
}

// len reports the number of cached entries.
func (c *lru[V]) len() int { return c.ll.Len() }
