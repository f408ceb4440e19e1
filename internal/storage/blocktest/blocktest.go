// Package blocktest holds the block-protocol conformance table. Three
// hosts serve the protocol through storage.ServeBlocks — the Pado node
// host, a stable-storage node, a Spark-like executor — and none of their
// packages can see the others' internals, so each one's test suite runs
// this same table against its own host.
package blocktest

import (
	"bytes"
	"errors"
	"testing"

	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// Drive runs get/put/miss/garbage-op against the block server listening
// on node `to`, from a fresh client node it adds to net.
func Drive(t *testing.T, net *simnet.Network, to string) {
	t.Helper()
	const from = "blocktest-client"
	if _, err := net.AddNode(from); err != nil {
		t.Fatal(err)
	}
	defer net.RemoveNode(from)
	met := &metrics.Job{}
	pool := storage.NewPoolTransport(net, from).Counting(met)
	defer pool.Close()
	dials := func() int64 { return met.Counter(metrics.NameConnDials).Load() }

	garbage := func() error {
		return pool.Do("garbage", to, func(e *data.Encoder, d *data.Decoder) error {
			if err := e.Byte('?'); err != nil {
				return err
			}
			if err := e.Flush(); err != nil {
				return err
			}
			_, err := d.Byte()
			return err
		})
	}
	cases := []struct {
		name string
		run  func() ([]byte, error)
		want []byte
		// check classifies the expected error; nil means success.
		check func(error) bool
		dials int64 // cumulative dials after the case
	}{
		{name: "put", dials: 1,
			run: func() ([]byte, error) { return nil, storage.StoreBlock(pool, "t", to, "k", []byte("v1")) }},
		{name: "get", dials: 1, want: []byte("v1"),
			run: func() ([]byte, error) { return storage.FetchBlock(pool, "t", to, "k") }},
		{name: "put replaces", dials: 1,
			run: func() ([]byte, error) { return nil, storage.StoreBlock(pool, "t", to, "k", []byte("v2")) }},
		{name: "get sees replacement", dials: 1, want: []byte("v2"),
			run: func() ([]byte, error) { return storage.FetchBlock(pool, "t", to, "k") }},
		// A miss is a reply on an aligned stream: no redial follows it.
		{name: "miss", dials: 1,
			run:   func() ([]byte, error) { return storage.FetchBlock(pool, "t", to, "absent") },
			check: func(err error) bool { return errors.Is(err, storage.ErrNotFound{}) && storage.IsReply(err) }},
		{name: "get after miss", dials: 1, want: []byte("v2"),
			run: func() ([]byte, error) { return storage.FetchBlock(pool, "t", to, "k") }},
		// An op outside the protocol makes the server drop the stream. The
		// pool's reuse-retry redials once and gets the same treatment.
		{name: "garbage op", dials: 2,
			run:   func() ([]byte, error) { return nil, garbage() },
			check: func(err error) bool { return storage.IsTransient(err) && !storage.IsReply(err) }},
		{name: "get after garbage", dials: 3, want: []byte("v2"),
			run: func() ([]byte, error) { return storage.FetchBlock(pool, "t", to, "k") }},
	}
	for _, c := range cases {
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
		if d := dials(); d != c.dials {
			t.Fatalf("%s: conn_dials = %d, want %d", c.name, d, c.dials)
		}
	}
}
