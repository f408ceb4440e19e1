// Package recache provides the per-executor task-input cache used by both
// engines (paper §3.2.7): an LRU over decoded record partitions with a
// byte budget, plus footprint estimation for decoded records.
package recache

import (
	"container/list"
	"fmt"
	"sync"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/obs"
)

// Key identifies a cacheable task input: a read source partition, an
// aligned stage-output partition, or a whole broadcast (Partition ==
// Broadcast).
type Key struct {
	Vertex    dag.VertexID
	Partition int
}

// Broadcast is the Key.Partition of a one-to-many input cached whole.
const Broadcast = -1

// String renders the key for the master's cache index.
func (k Key) String() string { return fmt.Sprintf("%d/%d", k.Vertex, k.Partition) }

// Cache is a per-executor LRU task input cache (§3.2.7). Entries hold
// decoded records; sizes are estimates of in-memory footprint. Safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	entries  map[Key]*list.Element
	hits     int64
	misses   int64
	flight   *Flight
}

type cacheEntry struct {
	key  Key
	recs []data.Record
	size int64
}

func New(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		flight:   NewFlight(),
	}
}

// Load is the read-through path every cached task input takes: a hit
// returns the resident records; a miss runs fill — once among concurrent
// callers of the same key, latecomers share the first caller's result —
// and caches what it returned. note hears whether the lookup hit before
// any fill starts, so each caller counts and traces hits and misses in its
// own vocabulary. A nil cache (caching off for this input) just fills.
func (c *Cache) Load(key Key, note func(hit bool), fill func() ([]data.Record, error)) ([]data.Record, error) {
	if c == nil {
		return fill()
	}
	recs, hit := c.Get(key)
	note(hit)
	if hit {
		return recs, nil
	}
	recs, _, err := c.flight.Do(key, func() ([]data.Record, error) {
		recs, err := fill()
		if err == nil {
			c.Put(key, recs)
		}
		return recs, err
	})
	return recs, err
}

// Observer builds the Load observer both engines use: it counts the lookup
// in met's cache hit/miss counters and traces it as ev under the matching
// kind.
func Observer(met *metrics.Job, tr *obs.Buf, ev obs.Event) func(hit bool) {
	return func(hit bool) {
		ev := ev
		if hit {
			ev.Kind = obs.CacheHit
			met.CacheHits.Add(1)
		} else {
			ev.Kind = obs.CacheMiss
			met.CacheMisses.Add(1)
		}
		tr.Emit(ev)
	}
}

// Get returns the cached records for key, if present.
func (c *Cache) Get(key Key) ([]data.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).recs, true
}

// Put inserts records under key, evicting least-recently-used entries
// until the budget holds. Oversized single entries are not cached.
func (c *Cache) Put(key Key, recs []data.Record) bool {
	size := EstimateSize(recs)
	if size > c.capacity {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.used += size - old.size
		old.recs, old.size = recs, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, recs: recs, size: size})
		c.entries[key] = el
		c.used += size
	}
	for c.used > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		c.used -= ent.size
	}
	return true
}

// Keys returns the currently cached keys (for the master's cache index).
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// Stats returns hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// estimateSize approximates the in-memory footprint of decoded records.
func EstimateSize(recs []data.Record) int64 {
	var sz int64
	for _, r := range recs {
		sz += 48 // record overhead + small scalar values
		sz += valueSize(r.Key)
		sz += valueSize(r.Value)
	}
	return sz
}

func valueSize(v any) int64 {
	switch x := v.(type) {
	case string:
		return int64(len(x))
	case []byte:
		return int64(len(x))
	case []float64:
		return int64(8 * len(x))
	case []any:
		var sz int64
		for _, e := range x {
			sz += 16 + valueSize(e)
		}
		return sz
	default:
		return 8
	}
}
