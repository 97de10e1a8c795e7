// Package cache provides the one bounded memo table of the session and
// server layers: a map capped at a fixed number of entries, evicting the
// oldest insert first, whose misses are computed under per-key
// single-flight.
//
// The lock is held for lookup and insert only; a computation runs
// outside it, so a slow miss never delays hits or misses on other keys.
// Concurrent callers for one missing key share one computation: the
// first becomes its leader, the others wait for it. A waiter whose
// leader failed computes again itself while its context is live, so one
// cancelled or faulted request does not fail the healthy ones sharing
// its key; a waiter whose context ends returns at once, and the leader
// carries on.
package cache

import (
	"context"
	"sync"
)

// Cache is a FIFO-capped map with per-key single-flight. The zero value
// is not usable; call New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	m       map[K]V
	order   []K // insertion order of the keys in m, oldest first
	flights map[K]*flight[V]
	stats   Stats
}

// flight is one in-flight computation, shared by every caller of its
// key while it runs. val and ok are valid once done is closed; ok is
// false if the computation failed or panicked.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// Stats counts a cache's traffic since it was created; Clear does not
// reset it.
type Stats struct {
	// Hits counts values served without computing them in the call:
	// found in the cache, or shared from another caller's computation.
	Hits int
	// Misses counts values computed by Do (successful computations
	// only) or created by GetOrAdd.
	Misses int
	// Evictions counts entries dropped to stay within the cap, and by
	// EvictOldestHalf. Clear and Delete are not evictions.
	Evictions int
}

// New returns an empty cache holding at most capacity entries (at least
// one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1)}
}

// Do returns the value under k, computing it with compute on a miss and
// storing it on success. hit reports that this call did not compute the
// value. A caller that waits on another caller's computation and sees
// its context end returns ctx.Err() unwrapped. A computation that
// completes after a Clear still stores its value.
func (c *Cache[K, V]) Do(ctx context.Context, k K, compute func() (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		if v, ok := c.m[k]; ok {
			c.stats.Hits++
			c.mu.Unlock()
			return v, true, nil
		}
		f := c.flights[k]
		if f == nil {
			f = &flight[V]{done: make(chan struct{})}
			if c.flights == nil {
				c.flights = map[K]*flight[V]{}
			}
			c.flights[k] = f
			c.mu.Unlock()
			return c.lead(k, f, compute)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if f.ok {
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			return f.val, true, nil
		}
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		// The leader failed: compute again, or join a newer flight.
	}
}

// lead runs compute for the flight f it registered under k. The
// bookkeeping is deferred so that it runs even if compute panics: f
// then reports a failure and its waiters retry.
func (c *Cache[K, V]) lead(k K, f *flight[V], compute func() (V, error)) (V, bool, error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, k)
		if f.ok {
			c.stats.Misses++
			c.addLocked(k, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	v, err := compute()
	f.val, f.ok = v, err == nil
	return v, false, err
}

// GetOrAdd returns the value under k, first storing mk() under it if k
// is absent. mk runs under the cache lock, so it must be cheap and must
// not lock anything.
func (c *Cache[K, V]) GetOrAdd(k K, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		c.stats.Hits++
		return v
	}
	c.stats.Misses++
	v := mk()
	c.addLocked(k, v)
	return v
}

// Peek returns the value under k without counting a hit or a miss.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

// Add stores v under k unless k is present: a duplicate insert keeps the
// first value.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(k, v)
}

func (c *Cache[K, V]) addLocked(k K, v V) {
	if _, dup := c.m[k]; dup {
		return
	}
	if len(c.order) >= c.cap {
		c.evictLocked(1)
	}
	if c.m == nil {
		c.m = map[K]V{}
	}
	c.m[k] = v
	c.order = append(c.order, k)
}

// evictLocked drops the n oldest entries, counting each as an eviction.
func (c *Cache[K, V]) evictLocked(n int) {
	for _, k := range c.order[:n] {
		delete(c.m, k)
	}
	c.order = c.order[n:]
	c.stats.Evictions += n
}

// Delete removes the entry under k if match reports true for its value,
// and reports whether it did.
func (c *Cache[K, V]) Delete(k K, match func(V) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	if !ok || !match(v) {
		return false
	}
	delete(c.m, k)
	for i, o := range c.order {
		if o == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return true
}

// Clear drops every entry and returns how many there were. Computations
// in flight are left alone and store their values when they complete.
func (c *Cache[K, V]) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m)
	c.m, c.order = nil, nil
	return n
}

// EvictOldestHalf drops the older half of the entries, at least one
// when any are present, and returns how many it dropped.
func (c *Cache[K, V]) EvictOldestHalf() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.order) / 2
	if n == 0 && len(c.order) > 0 {
		n = 1
	}
	c.evictLocked(n)
	return n
}

// Values returns the cached values, oldest insert first.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, len(c.order))
	for i, k := range c.order {
		out[i] = c.m[k]
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the entry cap.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Stats returns the hit, miss and eviction counts.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
