package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"pado/internal/data"
	"pado/internal/simnet"
)

func TestLocalStoreBasics(t *testing.T) {
	s := NewLocalStore()
	s.Put("a", []byte("one"))
	s.Put("b", []byte("two"))
	if got, ok := s.Get("a"); !ok || string(got) != "one" {
		t.Errorf("Get a = %q %v", got, ok)
	}
	if s.UsedBytes() != 6 || s.Len() != 2 {
		t.Errorf("accounting: %d bytes, %d blocks", s.UsedBytes(), s.Len())
	}
	s.Put("a", []byte("replaced"))
	if s.UsedBytes() != 11 {
		t.Errorf("replace accounting: %d", s.UsedBytes())
	}
	s.Delete("a")
	if s.Has("a") || s.UsedBytes() != 3 {
		t.Errorf("delete accounting: %d", s.UsedBytes())
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "b" {
		t.Errorf("keys = %v", keys)
	}
	s.Clear()
	if s.Len() != 0 || s.UsedBytes() != 0 {
		t.Error("clear left residue")
	}
	s.Delete("missing") // must not panic or corrupt accounting
	if s.UsedBytes() != 0 {
		t.Error("deleting missing key changed accounting")
	}
}

func TestLocalStoreConcurrent(t *testing.T) {
	s := NewLocalStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				key := fmt.Sprintf("k%d-%d", i, k)
				s.Put(key, make([]byte, 10))
				if _, ok := s.Get(key); !ok {
					t.Errorf("lost %s", key)
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("len = %d", s.Len())
	}
}

func newServiceCluster(t *testing.T, nodes int, diskBW int64) (*simnet.Network, *Service) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	var sn []*simnet.Node
	for i := 0; i < nodes; i++ {
		n, err := net.AddNode(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sn = append(sn, n)
	}
	if _, err := net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	svc := NewServiceDisk(sn, diskBW)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	return net, svc
}

// newClient returns a stable-storage client on its own pool, closed with
// the test.
func newClient(t *testing.T, net *simnet.Network, from string, svc *Service) *Client {
	pt := NewPoolTransport(net, from)
	t.Cleanup(pt.Close)
	return NewClientTransport(pt, svc)
}

func TestStableServicePutGet(t *testing.T) {
	net, svc := newServiceCluster(t, 3, 0)
	c := newClient(t, net, "client", svc)

	blocks := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("block-%d", i)
		payload := bytes.Repeat([]byte{byte(i)}, 100+i)
		blocks[key] = payload
		if err := c.Put(key, payload); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for key, want := range blocks {
		got, err := c.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("block %s corrupted", key)
		}
	}
	if svc.UsedBytes() == 0 {
		t.Error("service reports no stored bytes")
	}
}

func TestStableServiceMissingBlock(t *testing.T) {
	net, svc := newServiceCluster(t, 2, 0)
	c := newClient(t, net, "client", svc)
	_, err := c.Get("nope")
	var nf ErrNotFound
	if !errors.As(err, &nf) || nf.Key != "nope" {
		t.Errorf("got %v, want ErrNotFound", err)
	}
}

// truncatedTransport hands fn a decoder over a fixed response prefix, so
// decode failures after the response byte can be provoked
// deterministically.
type truncatedTransport struct{ resp []byte }

func (t truncatedTransport) Do(_, _ string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	return fn(data.NewEncoder(io.Discard), data.NewDecoder(bytes.NewReader(t.resp)))
}

// TestGetWrapsDecodeErrors: a connection that dies after the server has
// acknowledged the block (respOK, then truncation mid-payload) must
// surface an error carrying the key context, like every other Get
// failure — decode errors after the response byte used to escape bare.
func TestGetWrapsDecodeErrors(t *testing.T) {
	c := &Client{t: truncatedTransport{resp: []byte{respOK}}, nodes: []string{"s0"}}
	_, err := c.Get("the-block")
	if err == nil {
		t.Fatal("truncated response returned no error")
	}
	if !strings.Contains(err.Error(), `"the-block"`) {
		t.Errorf("decode error lost key context: %v", err)
	}
	var nf ErrNotFound
	if errors.As(err, &nf) {
		t.Errorf("truncation misreported as a miss: %v", err)
	}

	// Truncation before the response byte gets the same wrapping.
	c = &Client{t: truncatedTransport{}, nodes: []string{"s0"}}
	_, err = c.Get("other-block")
	if err == nil || !strings.Contains(err.Error(), `"other-block"`) {
		t.Errorf("pre-response error lost key context: %v", err)
	}
}

// TestPoolTransportReuseAndMissAlignment: pooled streams survive many
// operations, a miss (respNo) leaves the stream aligned for the next
// operation, and concurrent use from one client is safe.
func TestPoolTransportReuseAndMissAlignment(t *testing.T) {
	net, svc := newServiceCluster(t, 2, 0)
	pt := NewPoolTransport(net, "client")
	defer pt.Close()
	c := NewClientTransport(pt, svc)

	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Put(key, []byte(key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if _, err := c.Get("missing-" + key); !errors.As(err, &ErrNotFound{}) {
			t.Fatalf("miss %d: %v", i, err)
		}
		// The miss must not have desynced the pooled stream.
		got, err := c.Get(key)
		if err != nil || string(got) != key {
			t.Fatalf("get after miss: %q %v", got, err)
		}
	}
	pt.mu.Lock()
	dests := len(pt.idle)
	pt.mu.Unlock()
	if dests != 2 {
		t.Errorf("pooled %d destinations, want 2", dests)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				key := fmt.Sprintf("p%d-%d", i, k)
				if err := c.Put(key, []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, err := c.Get(key); err != nil || string(got) != key {
					t.Errorf("get %s: %q %v", key, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestStableServiceSpreadsBlocks(t *testing.T) {
	net, svc := newServiceCluster(t, 4, 0)
	c := newClient(t, net, "client", svc)
	for i := 0; i < 64; i++ {
		if err := c.Put(fmt.Sprintf("b%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range svc.stores {
		if st.Len() == 0 {
			t.Errorf("storage node %d received no blocks", i)
		}
	}
}

func TestStableServiceDiskThrottle(t *testing.T) {
	// 256KB through a single 512KB/s disk should take ~0.4s+.
	net, svc := newServiceCluster(t, 1, 512<<10)
	c := newClient(t, net, "client", svc)
	payload := make([]byte, 256<<10)
	start := time.Now()
	if err := c.Put("big", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("big"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("disk-throttled round trip took only %v", elapsed)
	}
}

func TestStableServiceDoubleStart(t *testing.T) {
	_, svc := newServiceCluster(t, 1, 0)
	if err := svc.Start(); err == nil {
		t.Error("second Start should fail")
	}
}

func TestStableServiceConcurrentClients(t *testing.T) {
	net, svc := newServiceCluster(t, 2, 0)
	for i := 0; i < 4; i++ {
		if _, err := net.AddNode(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(t, net, fmt.Sprintf("c%d", i), svc)
			for k := 0; k < 25; k++ {
				key := fmt.Sprintf("c%d-%d", i, k)
				if err := c.Put(key, []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := c.Get(key)
				if err != nil || string(got) != key {
					t.Errorf("get %s: %q %v", key, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
