// Package blocktest holds the block-protocol conformance tables. Four
// hosts serve the protocol through storage.ServeBlocks — the Pado node
// host, a stable-storage node, a Spark-like executor, the commit service —
// and none of their packages can see the others' internals, so each one's
// test suite runs the table for its kind of store against its own host.
package blocktest

import (
	"bytes"
	"errors"
	"testing"

	"pado/internal/metrics"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// step is one row of a conformance table.
type step struct {
	name string
	run  func() ([]byte, error)
	want []byte
	// check classifies the expected error; nil means success.
	check func(error) bool
	dials int64 // cumulative dials after the step
}

// isMiss and isRefusal are answers on an aligned stream: no redial follows
// them. isDrop is a server that closed the stream on the client.
func isMiss(err error) bool    { return errors.Is(err, storage.ErrNotFound{}) && storage.IsReply(err) }
func isRefusal(err error) bool { return !errors.Is(err, storage.ErrNotFound{}) && storage.IsReply(err) }
func isDrop(err error) bool    { return storage.IsTransient(err) && !storage.IsReply(err) }

// client issues the tables' operations against one host.
type client struct {
	pool storage.Transport
	to   string
}

func (c client) put(key, payload string) func() ([]byte, error) {
	return func() ([]byte, error) { return nil, storage.StoreBlock(c.pool, "t", c.to, key, []byte(payload)) }
}

func (c client) get(key string) func() ([]byte, error) {
	return func() ([]byte, error) { return storage.FetchBlock(c.pool, "t", c.to, key) }
}

// garbage sends an op outside the protocol, which makes the server drop
// the stream; the pool's reuse-retry redials once and gets the same.
func (c client) garbage() ([]byte, error) {
	return nil, storage.Call(c.pool, "garbage", c.to, '?', nil, nil, errors.New("refused"))
}

// Drive runs get/put/miss/garbage-op against the block server listening
// on node `to`, from a fresh client node it adds to net.
func Drive(t *testing.T, net *simnet.Network, to string) {
	t.Helper()
	drive(t, net, to, func(c client) []step {
		return []step{
			{name: "put", dials: 1, run: c.put("k", "v1")},
			{name: "get", dials: 1, run: c.get("k"), want: []byte("v1")},
			{name: "put replaces", dials: 1, run: c.put("k", "v2")},
			{name: "get sees replacement", dials: 1, run: c.get("k"), want: []byte("v2")},
			{name: "miss", dials: 1, run: c.get("absent"), check: isMiss},
			{name: "get after miss", dials: 1, run: c.get("k"), want: []byte("v2")},
			{name: "garbage op", dials: 2, run: c.garbage, check: isDrop},
			{name: "get after garbage", dials: 3, run: c.get("k"), want: []byte("v2")},
		}
	})
}

// DriveChunks is the table for a content-addressed host (the commit
// service): a block goes in only under its own hash.
func DriveChunks(t *testing.T, net *simnet.Network, to string) {
	t.Helper()
	drive(t, net, to, func(c client) []step {
		const v = "chunk"
		h, other := storage.HashChunk([]byte(v)), storage.HashChunk([]byte("other"))
		return []step{
			{name: "put by hash", dials: 1, run: c.put(h, v)},
			{name: "get", dials: 1, run: c.get(h), want: []byte(v)},
			{name: "put again", dials: 1, run: c.put(h, v)},
			{name: "miss", dials: 1, run: c.get(other), check: isMiss},
			{name: "mishashed put", dials: 1, run: c.put(other, v), check: isRefusal},
			{name: "mishashed put stored nothing", dials: 1, run: c.get(other), check: isMiss},
			{name: "garbage op", dials: 2, run: c.garbage, check: isDrop},
			{name: "get after garbage", dials: 3, run: c.get(h), want: []byte(v)},
		}
	})
}

// drive runs a table against node `to` from a fresh client node it adds to
// net, checking results, error classes and the dial count after each step.
func drive(t *testing.T, net *simnet.Network, to string, table func(client) []step) {
	t.Helper()
	const from = "blocktest-client"
	if _, err := net.AddNode(from); err != nil {
		t.Fatal(err)
	}
	defer net.RemoveNode(from)
	met := &metrics.Job{}
	pool := storage.NewPoolTransport(net, from).Counting(met)
	defer pool.Close()

	for _, c := range table(client{pool, to}) {
		got, err := c.run()
		switch {
		case c.check == nil && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.check != nil && (err == nil || !c.check(err)):
			t.Fatalf("%s: err = %v, misclassified", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: got %q, want %q", c.name, got, c.want)
		}
		if d := met.Counter(metrics.NameConnDials).Load(); d != c.dials {
			t.Fatalf("%s: conn_dials = %d, want %d", c.name, d, c.dials)
		}
	}
}
