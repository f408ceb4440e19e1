package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/simnet"
)

// TestHashChunkDeterministicAcrossEncoderReuse proves the content
// address depends only on the encoded bytes: the same records encoded
// through a fresh encoder and through a reused (dirtied) pooled encoder
// hash identically, and different content hashes differently.
func TestHashChunkDeterministicAcrossEncoderReuse(t *testing.T) {
	recs := make([]data.Record, 100)
	for i := range recs {
		recs[i] = data.KV(fmt.Sprintf("key%04d", i), int64(i*7))
	}
	coder := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}

	fresh, err := data.EncodeAll(coder, recs)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty a buffer with unrelated content, then reuse it.
	var buf bytes.Buffer
	e := data.NewEncoder(&buf)
	if err := e.String("unrelated garbage to dirty the buffer"); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	e.Reset(&buf)
	if err := e.Uvarint(uint64(len(recs))); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := coder.EncodeRecord(e, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	reused := append([]byte(nil), buf.Bytes()...)

	if HashChunk(fresh) != HashChunk(reused) {
		t.Fatalf("hash differs across encoder reuse: %s vs %s", HashChunk(fresh), HashChunk(reused))
	}
	recs[50] = data.KV("key0050", int64(999999))
	changed, err := data.EncodeAll(coder, recs)
	if err != nil {
		t.Fatal(err)
	}
	if HashChunk(fresh) == HashChunk(changed) {
		t.Fatal("hash identical for different content")
	}
}

// TestManifestRoundTrip sends a manifest through the wire codec and the
// store and gets identical structure back, both in-process and over the
// simnet service.
func TestManifestRoundTrip(t *testing.T) {
	store := NewCommitStore()
	h1 := store.PutChunk([]byte("part zero chunk"))
	h2 := store.PutChunk([]byte("part one chunk a"))
	h3 := store.PutChunk([]byte("part one chunk b"))
	m := &Manifest{Key: "stage/abc123", Parts: [][]string{{h1}, {h2, h3}, {}}}
	if err := store.Commit(m); err != nil {
		t.Fatal(err)
	}

	got := store.Resolve("stage/abc123", false)
	if got == nil {
		t.Fatal("resolve missed a committed key")
	}
	if got.Key != m.Key || len(got.Parts) != 3 {
		t.Fatalf("manifest mangled: %+v", got)
	}
	for i := range m.Parts {
		if len(got.Parts[i]) != len(m.Parts[i]) {
			t.Fatalf("part %d: got %d chunks, want %d", i, len(got.Parts[i]), len(m.Parts[i]))
		}
		for j := range m.Parts[i] {
			if got.Parts[i][j] != m.Parts[i][j] {
				t.Fatalf("part %d chunk %d mismatch", i, j)
			}
		}
	}

	// Over the wire: serve the store on two nodes, round-trip through a
	// client, including a chunk fetch of resolved content.
	net := simnet.New(simnet.Config{})
	for _, id := range []string{"client", "cas0", "cas1"} {
		if _, err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewCommitService(store, []*simnet.Node{net.Node("cas0"), net.Node("cas1")})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	pt := NewPoolTransport(net, "client")
	defer pt.Close()
	c := NewCommitClient(pt, svc.NodeIDs())

	rm, err := c.Resolve("stage/abc123", true)
	if err != nil {
		t.Fatal(err)
	}
	if rm == nil || rm.Key != m.Key || len(rm.Parts) != 3 || rm.Parts[1][1] != h3 {
		t.Fatalf("wire round-trip mangled manifest: %+v", rm)
	}
	payload, err := c.GetChunk(h2)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "part one chunk a" {
		t.Fatalf("chunk content mangled: %q", payload)
	}
	if _, err := c.GetChunk(HashChunk([]byte("never stored"))); !errors.Is(err, ErrNotFound{}) {
		t.Fatalf("missing chunk: got %v, want ErrNotFound", err)
	}
	miss, err := c.Resolve("stage/never", false)
	if err != nil || miss != nil {
		t.Fatalf("missing manifest: got %v, %v; want nil, nil", miss, err)
	}
	if err := c.Unpin("stage/abc123"); err != nil {
		t.Fatal(err)
	}

	// A client-side chunk put over the wire must land under the same
	// address the in-process path computes.
	h, err := c.PutChunk([]byte("wire chunk"))
	if err != nil {
		t.Fatal(err)
	}
	if h != HashChunk([]byte("wire chunk")) || !store.HasChunk(h) {
		t.Fatalf("wire put landed under wrong address %s", h)
	}
}

// TestCommitClientBatches: GetChunks and ResolveAll carry more keys than
// one batch holds to a two-node service in a handful of streams, and a
// chunk collected under the reader — or a key never committed — costs
// only itself.
func TestCommitClientBatches(t *testing.T) {
	const n = 2*MaxRounds + 7
	store := NewCommitStore()
	net := simnet.New(simnet.Config{})
	for _, id := range []string{"client", "cas0", "cas1"} {
		if _, err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewCommitService(store, []*simnet.Node{net.Node("cas0"), net.Node("cas1")})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	met := &metrics.Job{}
	pt := NewPoolTransport(net, "client").Counting(met)
	defer pt.Close()
	c := NewCommitClient(pt, svc.NodeIDs())

	hashes, keys := make([]string, n), make([]string, n)
	for i := range hashes {
		hashes[i] = store.PutChunk([]byte(fmt.Sprintf("chunk %d", i)))
		keys[i] = fmt.Sprintf("task/%d", i)
		if err := store.Commit(&Manifest{Key: keys[i], Parts: [][]string{{hashes[i]}}}); err != nil {
			t.Fatal(err)
		}
	}
	const gone = MaxRounds + 3 // in the middle of the second batch
	if err := store.Delete(keys[gone]); err != nil {
		t.Fatal(err)
	}
	if collected, _ := store.GC(); collected != 1 {
		t.Fatalf("GC collected %d chunks, want the one of the deleted commit", collected)
	}

	payloads, errs := c.GetChunks(hashes)
	for i := range hashes {
		if i == gone {
			if !errors.Is(errs[i], ErrNotFound{}) || payloads[i] != nil {
				t.Errorf("collected chunk: %q, %v; want ErrNotFound", payloads[i], errs[i])
			}
		} else if errs[i] != nil || string(payloads[i]) != fmt.Sprintf("chunk %d", i) {
			t.Errorf("chunk %d = %q, %v", i, payloads[i], errs[i])
		}
	}
	for i, m := range c.ResolveAll(keys, true) {
		if i == gone {
			if m != nil {
				t.Errorf("deleted commit resolved to %+v", m)
			}
		} else if m == nil || m.Key != keys[i] || m.Parts[0][0] != hashes[i] {
			t.Errorf("key %d resolved to %+v", i, m)
		} else if err := store.Delete(keys[i]); err == nil {
			t.Errorf("key %d was resolved with pin set but could be deleted", i)
		}
	}
	if ops := met.Counter(metrics.NameConnDials).Load() + met.Counter(metrics.NameConnReuses).Load(); ops != 6 {
		t.Errorf("%d streams checked out for %d chunks and %d keys, want one per batch of %d: 6", ops, n, n, MaxRounds)
	}
}

// TestGCNeverCollectsReachableChunks drives commits, re-commits, and
// deletes through the store and checks after every GC that each chunk
// reachable from a live commit survives.
func TestGCNeverCollectsReachableChunks(t *testing.T) {
	store := NewCommitStore()
	live := store.PutChunk([]byte("live chunk"))
	shared := store.PutChunk([]byte("shared between commits"))
	dead := store.PutChunk([]byte("never committed"))

	if err := store.Commit(&Manifest{Key: "a", Parts: [][]string{{live, shared}}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(&Manifest{Key: "b", Parts: [][]string{{shared}}}); err != nil {
		t.Fatal(err)
	}

	if n, _ := store.GC(); n != 1 {
		t.Fatalf("GC collected %d chunks, want 1 (only the uncommitted one)", n)
	}
	if store.HasChunk(dead) {
		t.Fatal("uncommitted chunk survived GC")
	}
	if !store.HasChunk(live) || !store.HasChunk(shared) {
		t.Fatal("GC collected a chunk reachable from a live commit")
	}

	// Dropping commit "a" must keep `shared` (still reachable from "b")
	// but free `live`.
	if err := store.Delete("a"); err != nil {
		t.Fatal(err)
	}
	store.GC()
	if store.HasChunk(live) {
		t.Fatal("chunk of deleted commit survived GC")
	}
	if !store.HasChunk(shared) {
		t.Fatal("GC collected a chunk still referenced by commit b")
	}

	// Pinned commits cannot be deleted out from under a running job.
	if store.Resolve("b", true) == nil {
		t.Fatal("resolve missed")
	}
	if err := store.Delete("b"); err == nil {
		t.Fatal("deleted a pinned commit")
	}
	store.Unpin("b")
	if err := store.Delete("b"); err != nil {
		t.Fatal(err)
	}
	store.GC()
	if store.HasChunk(shared) {
		t.Fatal("chunk survived after every referencing commit was deleted")
	}
	if st := store.Stats(); st.Chunks != 0 || st.UsedBytes != 0 {
		t.Fatalf("store not empty after final GC: %+v", st)
	}
}

// TestCommitRejectsDanglingChunks: a manifest referencing an unstored
// chunk must be refused, so commits can never dangle.
func TestCommitRejectsDanglingChunks(t *testing.T) {
	store := NewCommitStore()
	h := store.PutChunk([]byte("stored"))
	err := store.Commit(&Manifest{Key: "x", Parts: [][]string{{h, HashChunk([]byte("ghost"))}}})
	if err == nil {
		t.Fatal("commit with dangling chunk accepted")
	}
	if store.Resolve("x", false) != nil {
		t.Fatal("rejected commit is resolvable")
	}
}

// TestNodeForDistribution checks the client's hash routing spreads keys
// roughly evenly over the storage nodes — the property that makes N
// storage nodes share the load.
func TestNodeForDistribution(t *testing.T) {
	nodes := []string{"s0", "s1", "s2", "s3", "s4"}
	c := &CommitClient{nodes: nodes}
	counts := make(map[string]int, len(nodes))
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	for i := 0; i < n; i++ {
		key := HashChunk([]byte(fmt.Sprintf("chunk-%d-%d", i, rng.Int63())))
		counts[c.nodeFor(key)]++
	}
	want := float64(n) / float64(len(nodes))
	for _, id := range nodes {
		got := float64(counts[id])
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("node %s got %d of %d keys (want within 10%% of %.0f): %v", id, counts[id], n, want, counts)
		}
	}
}
