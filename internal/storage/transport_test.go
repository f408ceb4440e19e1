package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/simnet"
)

// Ops the test server answers beyond the block protocol.
const (
	opReject = 'r' // refused: the envelope marks it a peer reply
	opHang   = 'h' // never answers
	opDrop   = 'd' // reads the request, then closes the stream
	opFlaky  = 'f' // closes the stream the first time, answers after
	opEcho   = 'e' // answers with the string it was sent
	opBabble = 'b' // answers with a byte that is no verdict
)

var errTestRejected = errors.New("test: rejected")

// poolFixture is one client pool against one block server that also
// answers the test ops above.
type poolFixture struct {
	net   *simnet.Network
	pool  *PoolTransport
	met   *metrics.Job
	flaky atomic.Bool // set once opFlaky has dropped a stream
}

func (f *poolFixture) serve(t testing.TB, blocks map[string][]byte) {
	t.Helper()
	srv, err := f.net.AddNode("server")
	if err != nil {
		t.Fatal(err)
	}
	l, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	store := NewLocalStore()
	for k, v := range blocks {
		store.Put(k, v)
	}
	go ServeBlocks(l, store, nil, nil, func(op byte, e *data.Encoder, d *data.Decoder) error {
		switch op {
		case opReject:
			return Answer(e, false, nil)
		case opHang:
			// Blocks until the client gives up and closes the stream.
			_, err := d.Byte()
			return err
		case opFlaky:
			if f.flaky.CompareAndSwap(false, true) {
				return io.EOF
			}
			return Answer(e, true, nil)
		case opEcho:
			s, err := d.String()
			if err != nil {
				return err
			}
			return Answer(e, true, func(e *data.Encoder) error { return e.String(s) })
		case opBabble:
			if err := e.Byte('?'); err != nil {
				return err
			}
			return e.Flush()
		default: // opDrop and garbage
			return io.EOF
		}
	})
}

func newPoolFixture(t testing.TB, blocks map[string][]byte) *poolFixture {
	t.Helper()
	f := &poolFixture{net: simnet.New(simnet.Config{}), met: &metrics.Job{}}
	if _, err := f.net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	f.serve(t, blocks)
	f.pool = NewPoolTransport(f.net, "client").Counting(f.met)
	t.Cleanup(f.pool.Close)
	return f
}

func (f *poolFixture) dials() int64  { return f.met.Counter(metrics.NameConnDials).Load() }
func (f *poolFixture) reuses() int64 { return f.met.Counter(metrics.NameConnReuses).Load() }

func (f *poolFixture) idle() int {
	f.pool.mu.Lock()
	defer f.pool.mu.Unlock()
	return len(f.pool.idle["server"])
}

// deadlined is the fixture's pool with a per-attempt deadline, as a
// Transport.
type deadlined struct {
	pool     *PoolTransport
	deadline time.Duration
}

func (t deadlined) Do(_, to string, fn func(*data.Encoder, *data.Decoder) error) error {
	return t.pool.Attempt(to, t.deadline, fn)
}

// send runs a one-byte test op through the envelope and reports how often
// the pool invoked it.
func (f *poolFixture) send(op byte, deadline time.Duration) (calls int, err error) {
	err = Call(deadlined{f.pool, deadline}, "test", "server", op,
		func(*data.Encoder) error { calls++; return nil }, nil, errTestRejected)
	return calls, err
}

func (f *poolFixture) fetch(t *testing.T, id string) {
	t.Helper()
	if _, err := FetchBlock(f.pool, "fetch", "server", id); err != nil {
		t.Fatal(err)
	}
}

func TestPoolReusesStreams(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("payload")})
	const n = 6
	for i := 0; i < n; i++ {
		got, err := FetchBlock(f.pool, "fetch", "server", "blk")
		if err != nil || string(got) != "payload" {
			t.Fatalf("fetch %d = %q, %v", i, got, err)
		}
	}
	if f.dials() != 1 || f.reuses() != n-1 {
		t.Errorf("conn_dials = %d, conn_reuses = %d, want 1 and %d", f.dials(), f.reuses(), n-1)
	}
}

// TestPoolReplyKeepsStream: negative answers from a healthy peer (a miss,
// a rejection marked with Reply) are not transport failures — the stream
// goes back to the pool and the reuse-retry does not fire. An unmarked
// error on the same aligned stream does cost the stream.
func TestPoolReplyKeepsStream(t *testing.T) {
	f := newPoolFixture(t, nil)
	if _, err := FetchBlock(f.pool, "fetch", "server", "absent"); !errors.Is(err, ErrNotFound{}) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	calls, err := f.send(opReject, 0)
	if !errors.Is(err, errTestRejected) || !IsReply(err) || calls != 1 {
		t.Fatalf("reject: err = %v, %d calls; want one call and a marked reply", err, calls)
	}
	if f.dials() != 1 || f.idle() != 1 {
		t.Errorf("after replies: %d dials, %d idle; want 1 and 1", f.dials(), f.idle())
	}
	err = f.pool.Do("x", "server", func(*data.Encoder, *data.Decoder) error { return errors.New("unmarked") })
	if err == nil || IsReply(err) {
		t.Fatalf("unmarked error came back as %v", err)
	}
	if f.idle() != 0 {
		t.Error("a stream that failed with an unmarked error was pooled again")
	}
}

// TestEnvelope: what Call makes of each thing a round can come to. An
// answer, with or without a body, and a refusal leave the stream aligned
// and pooled; a body that does not decode and a verdict byte that is none
// are failures of the stream, which is dropped.
func TestEnvelope(t *testing.T) {
	f := newPoolFixture(t, nil)
	ping := func(e *data.Encoder) error { return e.String("ping") }

	var got string
	err := Call(f.pool, "test", "server", opEcho, ping,
		func(d *data.Decoder) (err error) { got, err = d.String(); return err }, errTestRejected)
	if err != nil || got != "ping" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	err = Call(f.pool, "test", "server", opReject, nil, nil, errTestRejected)
	if !errors.Is(err, errTestRejected) || !IsReply(err) {
		t.Fatalf("refusal: err = %v, want errTestRejected marked as a reply", err)
	}
	if f.dials() != 1 || f.idle() != 1 {
		t.Fatalf("after an answer and a refusal: %d dials, %d idle; want the one stream, pooled", f.dials(), f.idle())
	}

	errBody := errors.New("test: body does not decode")
	reads := 0
	err = Call(f.pool, "test", "server", opEcho, ping,
		func(*data.Decoder) error { reads++; return errBody }, errTestRejected)
	if !errors.Is(err, errBody) || IsReply(err) {
		t.Fatalf("undecodable body: err = %v, want errBody unmarked", err)
	}
	if reads != 2 || f.dials() != 2 || f.idle() != 0 {
		t.Errorf("undecodable body: %d reads, %d dials, %d idle; want the reused stream and one fresh one, both dropped",
			reads, f.dials(), f.idle())
	}
	if err := Call(f.pool, "test", "server", opBabble, nil, nil, errTestRejected); err == nil || IsReply(err) || f.idle() != 0 {
		t.Errorf("verdict byte '?': err = %v, %d idle; want an unmarked error and the stream dropped", err, f.idle())
	}
}

// TestBatchedRounds: what Calls makes of a batch. A refusal in the middle —
// a miss among gets, a collected chunk — is that round's own error and the
// stream stays aligned for the rounds behind it and pooled afterwards; a
// stream that dies after k answers fails only the unanswered rounds; and
// when the pool retries on a fresh stream the batch resumes behind the last
// answered round instead of asking again for what it has.
func TestBatchedRounds(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"a": []byte("A"), "b": []byte("B"), "d": []byte("D")})
	ids := []string{"a", "b", "c", "d"}
	payloads := make([][]byte, len(ids))
	rounds := make([]Round, len(ids))
	for i, id := range ids {
		rounds[i] = getRound(id, &payloads[i])
	}
	errs := Calls(f.pool, "fetch", "server", rounds)
	for i, want := range []string{"A", "B", "", "D"} {
		if miss := want == ""; miss != errors.Is(errs[i], ErrNotFound{}) || miss != IsReply(errs[i]) || string(payloads[i]) != want {
			t.Errorf("get %q = %q, %v; want %q and an ErrNotFound reply only for the miss", ids[i], payloads[i], errs[i], want)
		}
	}
	if f.dials() != 1 || f.idle() != 1 {
		t.Fatalf("after a batch with a miss: %d dials, %d idle; want the one stream, aligned and pooled", f.dials(), f.idle())
	}
	f.fetch(t, "d")
	if f.dials() != 1 || f.reuses() != 1 {
		t.Errorf("the next op: %d dials, %d reuses; want the batch's stream reused", f.dials(), f.reuses())
	}

	// echo, echo, drop, echo: the peer dies after two answers.
	asked := make([]int, 4)
	answers := make([]string, 4)
	round := func(i int, op byte) Round {
		r := Round{Op: op, Request: func(*data.Encoder) error { asked[i]++; return nil }, Refused: errTestRejected}
		if op == opEcho { // the only one of the test ops with a request and an answer body
			r.Request = func(e *data.Encoder) error { asked[i]++; return e.String(fmt.Sprint("r", i)) }
			r.Answer = func(d *data.Decoder) (err error) { answers[i], err = d.String(); return err }
		}
		return r
	}
	errs = Calls(f.pool, "test", "server", []Round{round(0, opEcho), round(1, opEcho), round(2, opDrop), round(3, opEcho)})
	if errs[0] != nil || errs[1] != nil || answers[0] != "r0" || answers[1] != "r1" {
		t.Errorf("rounds answered before the peer died: %v, %v, answers %q", errs[0], errs[1], answers[:2])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(errs[i], io.EOF) || IsReply(errs[i]) || !IsTransient(errs[i]) {
			t.Errorf("round %d behind the dead peer: err = %v, want the stream's io.EOF, unmarked", i, errs[i])
		}
	}
	// The stream was a reused one, so the pool tried once more on a fresh
	// dial — with rounds 2 and 3 only.
	if want := []int{1, 1, 2, 2}; fmt.Sprint(asked) != fmt.Sprint(want) {
		t.Errorf("requests written per round = %v, want %v", asked, want)
	}
	if f.idle() != 0 {
		t.Error("a stream that died mid-batch was pooled")
	}

	// echo, flaky, echo on a reused stream: the retry finishes the batch.
	f.fetch(t, "a")
	asked, answers = make([]int, 3), make([]string, 3)
	errs = Calls(f.pool, "test", "server", []Round{round(0, opEcho), round(1, opFlaky), round(2, opEcho)})
	if errs[0] != nil || errs[1] != nil || errs[2] != nil || answers[0] != "r0" || answers[2] != "r2" {
		t.Errorf("batch over a flaky peer: errs %v, answers %q; want it completed by the retry", errs, answers)
	}
	if want := []int{1, 2, 2}; fmt.Sprint(asked) != fmt.Sprint(want) {
		t.Errorf("requests written per round = %v, want %v", asked, want)
	}
	if f.idle() != 1 {
		t.Errorf("idle = %d after the batch completed on the retry, want 1", f.idle())
	}

	// A deadline that fires mid-batch fails the rounds it cut off, no more.
	f.fetch(t, "a")
	asked, answers = make([]int, 3), make([]string, 3)
	errs = Calls(deadlined{f.pool, 20 * time.Millisecond}, "test", "server",
		[]Round{round(0, opEcho), round(1, opEcho), round(2, opHang)})
	if errs[0] != nil || errs[1] != nil || answers[1] != "r1" || !errors.Is(errs[2], ErrDeadline) {
		t.Errorf("batch over a hanging peer: errs %v, want two rounds answered and ErrDeadline on the third", errs)
	}

	// Nothing reached: every round carries the dial's error.
	errs = Calls(f.pool, "test", "nowhere", []Round{round(0, opEcho), round(1, opEcho)})
	if !errors.Is(errs[0], simnet.ErrNoSuchNode) || !errors.Is(errs[1], simnet.ErrNoSuchNode) {
		t.Errorf("batch to an unknown node: errs %v", errs)
	}
}

func TestPoolConcurrentCheckout(t *testing.T) {
	// Hammer one destination from many goroutines; every operation gets
	// an exclusive stream, so all fetches must succeed and the race
	// detector must stay quiet.
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("v")})
	const goroutines, rounds = 16, 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := FetchBlock(f.pool, "fetch", "server", "blk"); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if f.dials()+f.reuses() != goroutines*rounds {
		t.Errorf("dials+reuses = %d, want %d", f.dials()+f.reuses(), goroutines*rounds)
	}
	if f.reuses() == 0 {
		t.Error("expected some stream reuse under concurrency")
	}
}

func TestPoolInvalidatesOnNodeDown(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("v")})
	f.fetch(t, "blk")
	f.net.RemoveNode("server")
	_, err := FetchBlock(f.pool, "fetch", "server", "blk")
	if err == nil {
		t.Fatal("fetch from removed node succeeded")
	}
	if !IsTransient(err) {
		t.Errorf("err = %v, want a transient (relaunchable) error", err)
	}
}

// TestPoolSkipsDeadIdleStream: a stream pooled against the old
// incarnation of a node must not be trusted after the peer restarts under
// the same id. Checkout sees it is dead and dials the new incarnation
// without spending the reuse-retry on it.
func TestPoolSkipsDeadIdleStream(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("old")})
	f.fetch(t, "blk")
	f.net.RemoveNode("server")
	f.serve(t, map[string][]byte{"blk2": []byte("new")})

	got, err := FetchBlock(f.pool, "fetch", "server", "blk2")
	if err != nil || string(got) != "new" {
		t.Fatalf("fetch from restarted peer = %q, %v", got, err)
	}
	if f.dials() != 2 || f.reuses() != 0 {
		t.Errorf("dials = %d, reuses = %d; want 2 and 0 (dead idle stream skipped, not reused)", f.dials(), f.reuses())
	}
	if _, err := f.send(opReject, 0); !errors.Is(err, errTestRejected) {
		t.Fatalf("reply from restarted peer: err = %v", err)
	}
}

// TestPoolReuseRetry: an operation that fails on a stream taken from the
// idle list is retried exactly once, on a fresh dial; one that fails on a
// fresh dial is not retried.
func TestPoolReuseRetry(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("v")})

	calls, err := f.send(opDrop, 0)
	if err == nil || calls != 1 || f.dials() != 1 {
		t.Fatalf("fresh stream: err = %v, %d calls, %d dials; want an error, 1 and 1", err, calls, f.dials())
	}

	f.fetch(t, "blk") // dial 2, pooled
	calls, err = f.send(opDrop, 0)
	if err == nil || calls != 2 || f.dials() != 3 {
		t.Fatalf("reused stream: err = %v, %d calls, %d dials; want an error, 2 and 3", err, calls, f.dials())
	}
	if f.idle() != 0 {
		t.Error("failed streams were pooled")
	}

	f.fetch(t, "blk") // dial 4, pooled
	calls, err = f.send(opFlaky, 0)
	if err != nil || calls != 2 || f.dials() != 5 {
		t.Fatalf("flaky peer: err = %v, %d calls, %d dials; want success on the retry, 2 and 5", err, calls, f.dials())
	}
	if f.idle() != 1 {
		t.Errorf("idle = %d after a successful retry, want 1", f.idle())
	}
}

// TestEOFIsTransportFailure: a server that reads the request and closes
// the stream surfaces as io.EOF at the reader. That is a peer dying
// mid-reply — transient, with the key context wrapped around it rather
// than replacing it — and the stream must not be pooled.
func TestEOFIsTransportFailure(t *testing.T) {
	f := newPoolFixture(t, nil)
	_, err := f.send(opDrop, 0)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if !IsTransient(err) || IsReply(err) {
		t.Errorf("EOF classified transient=%v reply=%v, want true and false", IsTransient(err), IsReply(err))
	}
	if !IsTransient(fmt.Errorf("mid-payload: %w", io.ErrUnexpectedEOF)) {
		t.Error("io.ErrUnexpectedEOF is not transient")
	}
	if f.idle() != 0 {
		t.Error("stream the peer closed was pooled")
	}

	c := &Client{t: truncatedTransport{}, nodes: []string{"s0"}}
	if _, err := c.Get("blk"); !errors.Is(err, io.EOF) || !IsTransient(err) {
		t.Errorf("Client.Get on a closed stream: err = %v, want a wrapped io.EOF", err)
	}
}

// TestPoolIdleCap: streams returned beyond maxIdlePerDest are closed.
func TestPoolIdleCap(t *testing.T) {
	f := newPoolFixture(t, nil)
	const n = maxIdlePerDest + 4
	var holding, wg sync.WaitGroup
	release := make(chan struct{})
	holding.Add(n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			// Every op holds its own stream until all n are checked out.
			_ = f.pool.Do("hold", "server", func(*data.Encoder, *data.Decoder) error {
				holding.Done()
				<-release
				return nil
			})
		}()
	}
	holding.Wait()
	close(release)
	wg.Wait()
	if f.dials() != n {
		t.Errorf("dials = %d, want %d", f.dials(), n)
	}
	if f.idle() != maxIdlePerDest {
		t.Errorf("idle = %d, want the cap %d", f.idle(), maxIdlePerDest)
	}
}

// TestPoolDeadline: the per-attempt deadline closes the stream under a
// blocked operation and reports ErrDeadline; on a reused stream the
// retry gets its own deadline.
func TestPoolDeadline(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("v")})
	f.fetch(t, "blk")
	start := time.Now()
	calls, err := f.send(opHang, 20*time.Millisecond)
	if !errors.Is(err, ErrDeadline) || !IsTransient(err) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (reused stream, then one fresh)", calls)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline took %v to fire", el)
	}
	if f.idle() != 0 {
		t.Error("stream killed by its deadline was pooled")
	}
}

func TestPoolClose(t *testing.T) {
	f := newPoolFixture(t, map[string][]byte{"blk": []byte("v")})
	f.fetch(t, "blk")
	f.pool.Close()
	if f.idle() != 0 {
		t.Errorf("idle list not drained: %d", f.idle())
	}
	// The pool still works after Close (ops dial fresh, streams are not
	// re-pooled) so late stragglers — e.g. progress replication
	// goroutines — don't crash.
	f.fetch(t, "blk")
	if f.idle() != 0 {
		t.Error("closed pool kept a stream")
	}
}

func TestFanout(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var mu sync.Mutex
		seen := make(map[int]bool)
		err := Fanout(10, workers, func(i int) error {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
			if i == 3 || i == 7 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Errorf("workers=%d: err = %v, want fail-3 (lowest index)", workers, err)
		}
		if len(seen) != 10 {
			t.Errorf("workers=%d: attempted %d of 10 indices", workers, len(seen))
		}
	}
	if err := Fanout(0, 4, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Errorf("n=0: err = %v", err)
	}
}
