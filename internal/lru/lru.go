// Package lru provides a small, concurrency-safe, bounded
// least-recently-used cache. It backs the caching layers of the serving
// stack: the Planner's per-distribution derived state (workloads,
// discretizations), and the plan service's response cache, planner
// cache and hit-path memos.
package lru

import (
	"container/list"
	"sync"
)

// entry is one key/value pair stored in the recency list.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Cache is a bounded LRU map. The zero value is not usable; construct
// with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

// New returns a cache holding at most capacity entries; capacity < 1
// is treated as 1.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key, marking it most recently used, and
// evicts the least recently used entry if the cache is over capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = val
		return
	}
	el := c.ll.PushFront(&entry[K, V]{key: key, val: val})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the configured capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }
