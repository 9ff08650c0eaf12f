package service

// Size-bounded LRU result cache. Values are the Outcomes the requests
// return, less the per-request Hash, Cached and Coalesced that await sets
// on its copy: either a schedule (with its interchange JSON rendered once
// at solve time, so hits never re-marshal the schedule struct) or a
// classified infeasibility, plus a replan's repair statistics. All are
// deterministic functions of the key and therefore safe to share across
// requests. Non-infeasibility errors (cancellation, solver faults) are
// never cached.

import (
	"container/list"
	"sync"
)

// lruCache is a plain mutex-guarded LRU: a map into an access-ordered
// intrusive list. The service's hot path is Get on a warm cache — one map
// lookup and one list splice under a short critical section.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

// lruEntry is one cached key and its outcome; a snapshot spills and
// replays the same pairs (persist.go).
type lruEntry struct {
	key string
	out Outcome
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached outcome for key and marks it most recently used.
func (c *lruCache) Get(key string) (Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return Outcome{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).out, true
}

// Put inserts (or refreshes) key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache) Put(key string, out Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, out: out})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// entries returns the cached (key, outcome) pairs, least recently used
// first — the spill order that lets a snapshot replay reproduce the
// recency order with plain Puts (persist.go).
func (c *lruCache) entries() []lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*lruEntry))
	}
	return out
}

// Len reports the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
