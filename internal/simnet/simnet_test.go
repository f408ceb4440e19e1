package simnet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func pair(t *testing.T, net *Network, from, to string) (*Conn, *Conn) {
	t.Helper()
	l, err := net.Node(to).Listen()
	if err != nil {
		t.Fatal(err)
	}
	var server *Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, _ = l.Accept(nil)
	}()
	client, err := net.Dial(from, to)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("accept returned nil")
	}
	return client, server
}

func twoNodes(t *testing.T, cfg Config) *Network {
	t.Helper()
	net := New(cfg)
	if _, err := net.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestStreamRoundTrip(t *testing.T) {
	net := twoNodes(t, Config{})
	c, s := pair(t, net, "a", "b")
	msg := []byte("hello simnet")
	go func() {
		c.Write(msg)
		c.CloseWrite()
	}()
	got, err := io.ReadAll(readerFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

type connReader struct{ c *Conn }

func (r connReader) Read(p []byte) (int, error) { return r.c.Read(p) }
func readerFor(c *Conn) io.Reader               { return connReader{c} }

func TestLargeTransferIntegrity(t *testing.T) {
	net := twoNodes(t, Config{ChunkSize: 1024})
	c, s := pair(t, net, "a", "b")
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	go func() {
		c.Write(payload)
		c.CloseWrite()
	}()
	got, err := io.ReadAll(readerFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in transit")
	}
}

// TestPooledChunksStayIntact sends random payloads over concurrent conns
// in writes of random sizes and reads them back through small, random
// buffers, so chunks are drained piecemeal while other flows recycle
// pooled buffers. Every size class is hit, and with a 64 KiB ChunkSize so
// is the unpooled path.
func TestPooledChunksStayIntact(t *testing.T) {
	for _, chunk := range []int{0, 64 << 10} {
		net := twoNodes(t, Config{ChunkSize: chunk})
		var wg sync.WaitGroup
		for f := 0; f < 4; f++ {
			c, s := pair(t, net, "a", "b")
			rng := rand.New(rand.NewSource(int64(f)))
			payload := make([]byte, 300<<10)
			rng.Read(payload)
			wg.Add(2)
			go func() {
				defer wg.Done()
				for rest := payload; len(rest) > 0; {
					n := min(len(rest), 1+rng.Intn(70<<10))
					if _, err := c.Write(rest[:n]); err != nil {
						t.Error(err)
						return
					}
					rest = rest[n:]
				}
				c.CloseWrite()
			}()
			go func() {
				defer wg.Done()
				var got []byte
				buf := make([]byte, 700)
				for {
					n, err := s.Read(buf[:1+len(got)%len(buf)])
					got = append(got, buf[:n]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("chunk size %d: payload corrupted in transit", chunk)
				}
			}()
		}
		wg.Wait()
	}
}

func TestBandwidthThrottling(t *testing.T) {
	// 1MB through a 2MB/s egress should take roughly 500ms minus the
	// initial burst allowance.
	net := New(Config{ChunkSize: 32 << 10})
	if _, err := net.AddNodeBW("a", 2<<20, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNodeBW("b", 0, 0); err != nil {
		t.Fatal(err)
	}
	c, s := pair(t, net, "a", "b")
	go io.Copy(io.Discard, readerFor(s))

	payload := make([]byte, 1<<20)
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 300*time.Millisecond {
		t.Errorf("1MB at 2MB/s finished in %v; throttle ineffective", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("transfer took %v; throttle too aggressive", elapsed)
	}
}

func TestSharedBandwidthContention(t *testing.T) {
	// Two flows into one ingress-limited node should each see about
	// half the bandwidth.
	net := New(Config{ChunkSize: 16 << 10})
	net.AddNodeBW("a", 0, 0)
	net.AddNodeBW("b", 0, 0)
	net.AddNodeBW("sink", 0, 2<<20)

	send := func(from string, n int, done chan<- time.Duration) {
		c, s := pair(t, net, from, "sink")
		go io.Copy(io.Discard, readerFor(s))
		start := time.Now()
		c.Write(make([]byte, n))
		done <- time.Since(start)
	}
	done := make(chan time.Duration, 2)
	go send("a", 512<<10, done)
	go send("b", 512<<10, done)
	d1, d2 := <-done, <-done
	total := d1
	if d2 > total {
		total = d2
	}
	// 1MB total through 2MB/s shared ingress: >=300ms.
	if total < 300*time.Millisecond {
		t.Errorf("contended transfers finished in %v; ingress not shared", total)
	}
}

func TestLatency(t *testing.T) {
	net := twoNodes(t, Config{Latency: 50 * time.Millisecond})
	c, s := pair(t, net, "a", "b")
	start := time.Now()
	go c.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("read completed in %v despite 50ms latency", elapsed)
	}
}

func TestNodeCloseBreaksConns(t *testing.T) {
	net := twoNodes(t, Config{})
	c, s := pair(t, net, "a", "b")
	net.Node("a").Close()

	buf := make([]byte, 1)
	if _, err := s.Read(buf); err == nil {
		t.Error("read from dead peer should fail")
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write from dead node should fail")
	}
	if !net.Node("a").Closed() {
		t.Error("node should report closed")
	}
}

func TestDialErrors(t *testing.T) {
	net := twoNodes(t, Config{})
	if _, err := net.Dial("a", "missing"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("dial to unknown: %v", err)
	}
	if _, err := net.Dial("missing", "a"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("dial from unknown: %v", err)
	}
	// b exists but is not listening.
	if _, err := net.Dial("a", "b"); !errors.Is(err, ErrNotListening) {
		t.Errorf("dial to non-listener: %v", err)
	}
	net.Node("b").Listen()
	net.Node("b").Close()
	if _, err := net.Dial("a", "b"); !errors.Is(err, ErrNodeDown) {
		t.Errorf("dial to closed: %v", err)
	}
}

func TestRemoveNode(t *testing.T) {
	net := twoNodes(t, Config{})
	net.RemoveNode("b")
	if net.Node("b") != nil {
		t.Error("removed node still present")
	}
	if _, err := net.AddNode("b"); err != nil {
		t.Errorf("re-adding removed id: %v", err)
	}
	if _, err := net.AddNode("a"); !errors.Is(err, ErrAlreadyExists) {
		t.Errorf("duplicate add: %v", err)
	}
}

func TestByteAccounting(t *testing.T) {
	net := twoNodes(t, Config{})
	c, s := pair(t, net, "a", "b")
	go func() {
		c.Write(make([]byte, 1000))
		c.CloseWrite()
	}()
	io.Copy(io.Discard, readerFor(s))
	if got := net.Node("a").BytesSent(); got != 1000 {
		t.Errorf("BytesSent = %d", got)
	}
	if got := net.Node("b").BytesRecv(); got != 1000 {
		t.Errorf("BytesRecv = %d", got)
	}
}

func TestListenerAcceptCancel(t *testing.T) {
	net := twoNodes(t, Config{})
	l, _ := net.Node("b").Listen()
	cancel := make(chan struct{})
	errs := make(chan error)
	go func() {
		_, err := l.Accept(cancel)
		errs <- err
	}()
	close(cancel)
	select {
	case err := <-errs:
		if err == nil {
			t.Error("canceled accept returned nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("accept did not honor cancel")
	}
}

func TestHalfClose(t *testing.T) {
	net := twoNodes(t, Config{})
	c, s := pair(t, net, "a", "b")
	// Client sends then half-closes; server can still respond.
	c.Write([]byte("ping"))
	c.CloseWrite()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(readerFor(s), buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("expected EOF after half close, got %v", err)
	}
	if _, err := s.Write([]byte("pong")); err != nil {
		t.Fatalf("server write after client half-close: %v", err)
	}
	if _, err := io.ReadFull(readerFor(c), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Errorf("got %q", buf)
	}
}

func TestConcurrentConnsNoInterleaving(t *testing.T) {
	net := twoNodes(t, Config{ChunkSize: 64})
	l, _ := net.Node("b").Listen()
	var wg sync.WaitGroup
	const flows = 8
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := l.Accept(nil)
			if err != nil {
				t.Error(err)
				return
			}
			data, err := io.ReadAll(readerFor(conn))
			if err != nil {
				t.Error(err)
				return
			}
			// Each flow sends a run of one repeated byte; interleaving
			// across conns would corrupt the run.
			for _, b := range data[1:] {
				if b != data[0] {
					t.Errorf("flow bytes interleaved")
					return
				}
			}
		}(i)
	}
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("a", "b")
			if err != nil {
				t.Error(err)
				return
			}
			payload := bytes.Repeat([]byte{byte('A' + i)}, 1000)
			c.Write(payload)
			c.Close()
		}(i)
	}
	wg.Wait()
}

func TestLimiterUnlimited(t *testing.T) {
	l := NewLimiter(0, 0)
	if !l.Unlimited() {
		t.Error("rate 0 should be unlimited")
	}
	start := time.Now()
	if err := l.Acquire(1<<30, nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("unlimited limiter blocked")
	}
}

func TestLimiterOversizedRequest(t *testing.T) {
	// A request larger than the burst must not deadlock.
	l := NewLimiter(1<<20, 1024)
	done := make(chan struct{})
	go func() {
		l.Acquire(64<<10, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("oversized acquire deadlocked")
	}
}

func TestLimiterClose(t *testing.T) {
	l := NewLimiter(10, 1) // very slow
	errs := make(chan error)
	go func() { errs <- l.Acquire(1000, nil) }()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrLimiterClosed) {
			t.Errorf("got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not release waiter")
	}
}

func TestLimiterCancel(t *testing.T) {
	l := NewLimiter(10, 1)
	cancel := make(chan struct{})
	errs := make(chan error)
	go func() { errs <- l.Acquire(1000, cancel) }()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errs:
		if err == nil {
			t.Error("canceled acquire returned nil")
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not release waiter")
	}
}
