package recache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/obs"
)

func recsOfSize(n int) []data.Record {
	recs := make([]data.Record, n)
	for i := range recs {
		recs[i] = data.KV(int64(i), int64(i))
	}
	return recs
}

func TestCachePutGet(t *testing.T) {
	c := New(1 << 20)
	key := Key{Vertex: 1, Partition: 2}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	recs := recsOfSize(10)
	if !c.Put(key, recs) {
		t.Fatal("put rejected")
	}
	got, ok := c.Get(key)
	if !ok || len(got) != 10 {
		t.Fatalf("get = %v, %v", got, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Each 10-record entry is ~640 estimated bytes; cap fits ~3.
	c := New(2000)
	for i := 0; i < 5; i++ {
		c.Put(Key{Vertex: dag.VertexID(i), Partition: 0}, recsOfSize(10))
	}
	// Oldest entries must be gone; newest present.
	if _, ok := c.Get(Key{Vertex: dag.VertexID(0), Partition: 0}); ok {
		t.Error("oldest entry survived beyond budget")
	}
	if _, ok := c.Get(Key{Vertex: dag.VertexID(4), Partition: 0}); !ok {
		t.Error("newest entry evicted")
	}
}

func TestCacheTouchOnGet(t *testing.T) {
	c := New(2000)
	a := Key{Vertex: 1}
	c.Put(a, recsOfSize(10))
	c.Put(Key{Vertex: 2}, recsOfSize(10))
	c.Put(Key{Vertex: 3}, recsOfSize(10))
	c.Get(a) // touch a so it is most recent
	c.Put(Key{Vertex: 4}, recsOfSize(10))
	c.Put(Key{Vertex: 5}, recsOfSize(10))
	if _, ok := c.Get(a); !ok {
		t.Error("recently used entry was evicted")
	}
}

func TestCacheOversizedEntry(t *testing.T) {
	c := New(100)
	if c.Put(Key{Vertex: 1}, recsOfSize(1000)) {
		t.Error("oversized entry should not be cached")
	}
}

func TestCacheReplace(t *testing.T) {
	c := New(1 << 20)
	k := Key{Vertex: 1}
	c.Put(k, recsOfSize(10))
	c.Put(k, recsOfSize(20))
	got, _ := c.Get(k)
	if len(got) != 20 {
		t.Errorf("replacement not visible, len=%d", len(got))
	}
	if n := len(c.Keys()); n != 1 {
		t.Errorf("keys = %d, want 1", n)
	}
}

func TestEstimateSizeGrowsWithContent(t *testing.T) {
	small := EstimateSize([]data.Record{{Key: "k", Value: "v"}})
	big := EstimateSize([]data.Record{{Key: "k", Value: make([]float64, 1000)}})
	if big <= small {
		t.Errorf("size estimate ignores content: %d vs %d", small, big)
	}
	grouped := EstimateSize([]data.Record{{Key: "k", Value: []any{"aa", "bb"}}})
	if grouped <= 48 {
		t.Errorf("grouped value size too small: %d", grouped)
	}
}

func TestFlightDeduplicates(t *testing.T) {
	f := NewFlight()
	key := Key{Vertex: 7}
	var calls, shared atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 16
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, wasShared, err := f.Do(key, func() ([]data.Record, error) {
				calls.Add(1)
				<-gate // hold the in-flight call until all callers queue up
				return recsOfSize(3), nil
			})
			if err != nil || len(recs) != 3 {
				t.Errorf("do: %v %v", recs, err)
			}
			if wasShared {
				shared.Add(1)
			}
		}()
	}
	// Let every other caller queue on the first fetch before releasing it.
	waitQueued(t, f, key, callers-1)
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fetch called %d times, want 1", n)
	}
	if n := shared.Load(); n != callers-1 {
		t.Errorf("%d callers shared the fetch, want %d", n, callers-1)
	}
	// Once the fetch has landed nothing is in flight: the next call fetches.
	if _, wasShared, _ := f.Do(key, func() ([]data.Record, error) { return nil, nil }); wasShared {
		t.Error("a call after the flight landed shared it")
	}
}

// queued reports how many callers wait on key's fetch in flight; -1 when
// none is in flight.
func (f *Flight) queued(key Key) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.calls[key]; c != nil {
		return c.waiters
	}
	return -1
}

// waitQueued yields until n callers wait on key's fetch in flight; a flight
// that never queues them fails the test instead of hanging it.
func waitQueued(t *testing.T, f *Flight, key Key, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.queued(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers queued on the fetch of %v, want %d", f.queued(key), key, n)
		}
		runtime.Gosched()
	}
}

func TestFlightPropagatesErrors(t *testing.T) {
	f := NewFlight()
	boom := errors.New("boom")
	_, _, err := f.Do(Key{Vertex: 1}, func() ([]data.Record, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
	// After an error the key is retryable.
	recs, _, err := f.Do(Key{Vertex: 1}, func() ([]data.Record, error) { return recsOfSize(1), nil })
	if err != nil || len(recs) != 1 {
		t.Errorf("retry after error failed: %v %v", recs, err)
	}
}

func TestFlightDistinctKeysIndependent(t *testing.T) {
	f := NewFlight()
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Do(Key{Vertex: dag.VertexID(i)}, func() ([]data.Record, error) {
				calls.Add(1)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Errorf("distinct keys collapsed: %d calls", calls.Load())
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Vertex: 3, Partition: -1}
	if k.String() != fmt.Sprintf("%d/%d", 3, -1) {
		t.Errorf("Key.String = %q", k.String())
	}
}

// TestLoad walks the read-through path both engines use: a miss fills and
// caches, a hit skips the fill, a failed fill caches nothing, concurrent
// misses share one fill, and a nil cache reads through unobserved. The
// observer counts and traces every lookup under the caller's identity.
func TestLoad(t *testing.T) {
	met := &metrics.Job{}
	tr := obs.New()
	note := Observer(met, tr.Buf(), obs.Event{Stage: 4, Task: 2, Exec: "t1", Note: "read"})
	c := New(1 << 20)
	key := Key{Vertex: 3, Partition: 2}
	fills := 0
	fill := func() ([]data.Record, error) { fills++; return recsOfSize(5), nil }

	for i, wantFills := range []int{1, 1} { // miss, then hit
		recs, err := c.Load(key, note, fill)
		if err != nil || len(recs) != 5 || fills != wantFills {
			t.Fatalf("load %d: %d recs, err %v, %d fills (want %d)", i, len(recs), err, fills, wantFills)
		}
	}
	if h, m := met.CacheHits.Load(), met.CacheMisses.Load(); h != 1 || m != 1 {
		t.Errorf("counted %d hits, %d misses, want 1 and 1", h, m)
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != obs.CacheMiss || evs[1].Kind != obs.CacheHit ||
		evs[1].Stage != 4 || evs[1].Task != 2 || evs[1].Exec != "t1" || evs[1].Note != "read" {
		t.Errorf("traced %+v, want a miss then a hit under the caller's identity", evs)
	}

	boom := errors.New("boom")
	bad := Key{Vertex: 9}
	if _, err := c.Load(bad, note, func() ([]data.Record, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("failed fill returned %v", err)
	}
	if _, ok := c.Get(bad); ok {
		t.Error("a failed fill was cached")
	}

	var calls atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	shared := Key{Vertex: 5, Partition: Broadcast}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := c.Load(shared, note, func() ([]data.Record, error) {
				calls.Add(1)
				<-gate
				return recsOfSize(2), nil
			})
			if err != nil || len(recs) != 2 {
				t.Errorf("shared load: %d recs, %v", len(recs), err)
			}
		}()
	}
	waitQueued(t, c.flight, shared, 8-1) // every caller has missed and is in the flight
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d concurrent fills of one key, want them shared", n)
	}

	var off *Cache
	recs, err := off.Load(key, func(bool) { t.Error("a nil cache has no lookup to observe") }, fill)
	if err != nil || len(recs) != 5 || fills != 2 {
		t.Errorf("nil cache: %d recs, err %v, %d fills (want a read-through)", len(recs), err, fills)
	}
}
