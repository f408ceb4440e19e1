package recache

import (
	"sync"

	"pado/internal/data"
)

// Flight deduplicates concurrent fetches of the same cacheable input on
// one executor: when several task slots need the same broadcast at once,
// only one fetch goes over the network and the rest share its result —
// the behavior of Spark's per-executor broadcast and the intent of the
// paper's task input caching ("it only needs to be sent once to the
// executors", §3.2.7).
type Flight struct {
	mu    sync.Mutex
	calls map[Key]*flightCall
}

type flightCall struct {
	done    chan struct{}
	recs    []data.Record
	err     error
	waiters int // latecomers sharing this fetch; guarded by Flight.mu
}

// NewFlight returns an empty flight group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[Key]*flightCall)}
}

// Do invokes fn once per key among concurrent callers; latecomers block
// and share the first caller's result. shared reports whether the result
// came from another caller's fetch.
func (f *Flight) Do(key Key, fn func() ([]data.Record, error)) (recs []data.Record, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		c.waiters++
		f.mu.Unlock()
		<-c.done
		return c.recs, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.recs, c.err = fn()
	close(c.done)

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	return c.recs, false, c.err
}
