package obs

import (
	"slices"
	"sync/atomic"
)

// The live-event plane fans every emitted event out to two classes of
// subscriber, any number of each:
//
//   - synchronous ones (SubscribeSync), whose function is invoked inline
//     from the emitting goroutine — the chaos engine depends on this
//     synchrony to inject faults deterministically at the exact emission
//     point;
//   - asynchronous ones (Subscribe), each owning a buffered
//     channel the emitter offers events to without ever blocking: when
//     a subscriber's buffer is full the event is dropped for that
//     subscriber and its drop counter incremented. A slow consumer
//     (an SSE client on a bad link, a stalled padotop) can therefore
//     never stall Emit or hold up the master loop.
//
// The subscriber set is copy-on-write: SubscribeSync/Subscribe/Close build a
// fresh immutable fanout under the tracer's mutex and publish it with
// one atomic store, so the emit path is a single atomic load plus a
// loop over an immutable slice — no lock, no allocation.

// fanout is the immutable live-consumer set published on Tracer.fan.
type fanout struct {
	// sync are the synchronous subscribers, invoked inline in
	// subscription order before any asynchronous offer.
	sync []*Subscriber
	// subs are the asynchronous subscribers, offered to in order.
	subs []*Subscriber
}

// Kind masks fit in a uint64; keep the static guarantee that adding
// kinds past 64 breaks the build here rather than silently mis-filtering.
var _ [64 - int(kindCount)]struct{}

// Subscriber is one consumer of the live event stream. An asynchronous
// one gets events on C() in emission order as seen by each emitting
// goroutine; events arriving while the buffer is full are dropped
// (counted by Dropped), never blocking the emitter. A synchronous one has
// no channel: its function has already run when Emit returns.
type Subscriber struct {
	t    *Tracer
	fn   func(Event) // synchronous subscribers only
	mask uint64      // bit i set = Kind(i) wanted; 0 = all kinds
	ch   chan Event

	drops atomic.Int64
}

// Subscribe registers a live-event subscriber with the given channel
// buffer size (clamped to at least 1) delivering only the listed kinds,
// or every kind when none are given. The subscriber must be Closed when
// done; a nil tracer returns nil, and every Subscriber method is
// nil-safe, so callers on the disabled path need no branches.
func (t *Tracer) Subscribe(buf int, kinds ...Kind) *Subscriber {
	if t == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	var mask uint64
	for _, k := range kinds {
		if k < kindCount {
			mask |= 1 << uint(k)
		}
	}
	s := &Subscriber{t: t, mask: mask, ch: make(chan Event, buf)}
	t.mu.Lock()
	t.publishLocked(func(f *fanout) {
		f.subs = append(f.subs, s)
	})
	t.mu.Unlock()
	return s
}

// SubscribeSync registers fn as a synchronous subscriber: every subsequent
// Emit on any of the tracer's buffers invokes fn with the stamped event,
// from the emitting goroutine, before any asynchronous subscriber sees it.
// fn must be fast and must not block — emitters sit on hot paths (the
// master event loop, executor task loops). Consumers that tolerate drops
// should use Subscribe instead. Close detaches it; nil-safe like Subscribe.
func (t *Tracer) SubscribeSync(fn func(Event)) *Subscriber {
	if t == nil {
		return nil
	}
	s := &Subscriber{t: t, fn: fn}
	t.mu.Lock()
	t.publishLocked(func(f *fanout) {
		f.sync = append(f.sync, s)
	})
	t.mu.Unlock()
	return s
}

// C returns the subscriber's event channel. The channel is never closed
// (emitters may still hold a stale fanout for one offer after Close);
// consumers stop by selecting on their own done signal. Nil-safe: a nil
// subscriber returns a nil channel, which blocks forever in a select.
func (s *Subscriber) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped reports how many events were discarded because the
// subscriber's buffer was full at offer time. Nil-safe.
func (s *Subscriber) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.drops.Load()
}

// Close detaches the subscriber from the tracer's fan-out. The channel
// is deliberately left open: an emitter that loaded the previous fanout
// may still offer one event after Close returns, and sending on a
// closed channel would panic. Idempotent and nil-safe.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	t.publishLocked(func(f *fanout) {
		// The clone's slices are its own: deleting in place is safe.
		drop := func(sub *Subscriber) bool { return sub == s }
		f.sync = slices.DeleteFunc(f.sync, drop)
		f.subs = slices.DeleteFunc(f.subs, drop)
	})
	t.mu.Unlock()
}

// offer delivers ev to the subscriber without blocking, dropping (and
// counting) when the buffer is full or the kind is filtered out.
func (s *Subscriber) offer(ev Event) {
	if s.mask != 0 && s.mask&(1<<uint(ev.Kind)) == 0 {
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.drops.Add(1)
	}
}

// publishLocked clones the current fanout, applies mut to the clone, and
// publishes it — or nil when the result carries no consumers, restoring
// the single-pointer-check fast path on Emit. Caller holds t.mu.
func (t *Tracer) publishLocked(mut func(*fanout)) {
	next := &fanout{}
	if cur := t.fan.Load(); cur != nil {
		next.sync = slices.Clone(cur.sync)
		next.subs = slices.Clone(cur.subs)
	}
	mut(next)
	if len(next.sync) == 0 && len(next.subs) == 0 {
		t.fan.Store(nil)
		return
	}
	t.fan.Store(next)
}
