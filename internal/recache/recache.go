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
// and caches what it returned. Each lookup is reported once on tr, as ev
// under the caller's identity with the Note extended by how it ended: a
// call that ran no fill is a cache_hit ("resident", or "shared" when it
// waited on another caller's fill), the call that runs the fill a
// cache_miss, emitted as the fill starts, so the misses are the fills. A
// nil cache (caching off for this input) just fills.
func (c *Cache) Load(key Key, tr *obs.Buf, ev obs.Event, fill func() ([]data.Record, error)) ([]data.Record, error) {
	if c == nil {
		return fill()
	}
	note := ev.Note
	recs, hit := c.Get(key)
	if hit {
		ev.Kind, ev.Note = obs.CacheHit, note+" resident"
		tr.Emit(ev)
		return recs, nil
	}
	recs, shared, err := c.flight.Do(key, func() ([]data.Record, error) {
		ev.Kind = obs.CacheMiss
		tr.Emit(ev)
		recs, err := fill()
		if err == nil {
			c.Put(key, recs)
		}
		return recs, err
	})
	if shared {
		ev.Kind, ev.Note = obs.CacheHit, note+" shared"
		tr.Emit(ev)
	}
	return recs, err
}

// Get returns the cached records for key, if present.
func (c *Cache) Get(key Key) ([]data.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
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
