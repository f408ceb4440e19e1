package obs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// drain pulls everything currently buffered on the subscriber.
func drain(s *Subscriber) []Event {
	var out []Event
	for {
		select {
		case ev := <-s.C():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestSubscribeDeliversAndFilters(t *testing.T) {
	tr := New()
	b := tr.Buf(nil, 0)

	all := tr.Subscribe(16)
	pushes := tr.Subscribe(16, PushStarted, PushCommitted)
	defer all.Close()
	defer pushes.Close()

	b.Emit(Event{Kind: TaskLaunched, Task: 1})
	b.Emit(Event{Kind: PushStarted, Task: 1})
	b.Emit(Event{Kind: PushCommitted, Task: 1})

	if got := drain(all); len(got) != 3 {
		t.Fatalf("unfiltered subscriber got %d events, want 3", len(got))
	}
	got := drain(pushes)
	if len(got) != 2 {
		t.Fatalf("filtered subscriber got %d events, want 2", len(got))
	}
	for _, ev := range got {
		if ev.Kind != PushStarted && ev.Kind != PushCommitted {
			t.Errorf("filtered subscriber saw %v", ev.Kind)
		}
	}
	if d := all.Dropped(); d != 0 {
		t.Errorf("dropped = %d, want 0", d)
	}
}

// TestSlowSubscriberDropsNotBlocks is the satellite's slow-consumer
// guarantee: a subscriber that never reads its channel costs the
// emitter nothing beyond a failed non-blocking send — every overflow is
// counted, emission latency stays bounded, and other consumers (the
// synchronous tap, healthy subscribers) still see the full stream.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	tr := New()
	b := tr.Buf(nil, 0)

	const buf, total = 4, 1000
	slow := tr.Subscribe(buf) // never read
	defer slow.Close()
	fast := tr.Subscribe(2 * total)
	defer fast.Close()

	start := time.Now()
	for i := 0; i < total; i++ {
		b.Emit(Event{Kind: TaskLaunched, Task: i})
	}
	elapsed := time.Since(start)

	// A blocking send would hang forever; a spinning one would take
	// seconds. 1000 non-blocking offers finish in microseconds — allow
	// three orders of magnitude of CI noise.
	if elapsed > 2*time.Second {
		t.Fatalf("emitting %d events past a stuck subscriber took %v", total, elapsed)
	}
	if d := slow.Dropped(); d != total-buf {
		t.Errorf("slow.Dropped() = %d, want %d", d, total-buf)
	}
	if got := len(drain(fast)); got != total {
		t.Errorf("fast subscriber got %d events, want %d", got, total)
	}
	if d := fast.Dropped(); d != 0 {
		t.Errorf("fast.Dropped() = %d, want 0", d)
	}
}

// TestFanoutConcurrentEmitSubscribe is the satellite's -race hardening
// test: emitters on several goroutines race the add/remove of subscribers
// of both classes. The assertions are deliberately weak (no panics, no
// lost events on a wide-open subscriber, the synchronous ones see a sane
// subset); the real check is the race detector over the copy-on-write
// publish.
func TestFanoutConcurrentEmitSubscribe(t *testing.T) {
	tr := New()

	const emitters, perEmitter, churners = 4, 500, 3
	var tapped Counterish
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churn two synchronous subscribers on and off.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.SubscribeSync(func(Event) { tapped.Add(1) }).Close()
			}
		}()
	}

	// Churn subscribers: subscribe, drain a little, close.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := tr.Subscribe(8, TaskLaunched)
				for j := 0; j < 4; j++ {
					select {
					case <-s.C():
					default:
					}
				}
				s.Close()
				_ = s.Dropped()
			}
		}()
	}

	var emitWG sync.WaitGroup
	for e := 0; e < emitters; e++ {
		emitWG.Add(1)
		go func(e int) {
			defer emitWG.Done()
			b := tr.Buf(nil, 0)
			for i := 0; i < perEmitter; i++ {
				b.Emit(Event{Kind: TaskLaunched, Exec: "e", Task: i, Attempt: e})
			}
		}(e)
	}
	emitWG.Wait()
	close(stop)
	wg.Wait()

	if n := tr.Len(); n != emitters*perEmitter {
		t.Fatalf("recorded %d events, want %d", n, emitters*perEmitter)
	}
	if got := tapped.Load(); got < 0 || got > 2*int64(emitters*perEmitter) {
		t.Fatalf("synchronous subscribers saw %d events, want between 0 and %d", got, 2*emitters*perEmitter)
	}
}

// TestSyncSubscribers locks the contract the chaos engine relies on — a
// synchronous subscriber runs on the emitting goroutine, before Emit
// returns — and that several coexist: each sees every event, in
// subscription order, until its own Close, which leaves the others alone.
func TestSyncSubscribers(t *testing.T) {
	tr := New()
	b := tr.Buf(nil, 0)

	var got []string // no lock: synchronous means same goroutine
	first := tr.SubscribeSync(func(ev Event) { got = append(got, fmt.Sprint("first:", ev.Task)) })
	second := tr.SubscribeSync(func(ev Event) { got = append(got, fmt.Sprint("second:", ev.Task)) })
	b.Emit(Event{Kind: PushStarted, Task: 7})
	first.Close()
	first.Close() // idempotent
	b.Emit(Event{Kind: PushStarted, Task: 8})
	second.Close()
	b.Emit(Event{Kind: PushStarted, Task: 9})

	want := []string{"first:7", "second:7", "second:8"}
	if !slices.Equal(got, want) {
		t.Fatalf("synchronous subscribers saw %v, want %v", got, want)
	}
	if tr.fan.Load() != nil {
		t.Error("fan-out still published after the last subscriber closed")
	}
}

func TestSubscriberNilSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Subscribe(8, TaskLaunched)
	if s != nil {
		t.Fatal("nil tracer must hand out a nil subscriber")
	}
	if s.C() != nil {
		t.Error("nil subscriber channel must be nil")
	}
	if s.Dropped() != 0 {
		t.Error("nil subscriber drop count must be 0")
	}
	s.Close() // must not panic
	tr.SubscribeSync(func(Event) {}).Close()
}

// Counterish is a tiny atomic counter for test tallies (avoids
// importing metrics here just for a tally).
type Counterish struct {
	mu sync.Mutex
	n  int64
}

func (c *Counterish) Add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *Counterish) Load() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }
