package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"pado/internal/data"
	"pado/internal/simnet"
)

// Content-addressed commit store (Pachyderm-style, DESIGN.md §14): the
// versioned layer above the flat key→block stable store. Immutable
// chunks are keyed by their content hash; commit manifests map a dataset
// key to the ordered chunk hashes of each partition; chunks are
// ref-counted by the manifests that reach them, so GC can only collect
// chunks no live commit references.
//
// One CommitStore outlives individual runs: the engine object is handed
// from run to run (harness.Params.CommitStore, padorun -incremental)
// while each run serves it over its own simulated network via a fresh
// CommitService, which is what makes cross-run incremental re-execution
// possible.

// The commit service's manifest ops. Chunks need none of their own: a
// chunk is a block whose key is its content hash (chunkBlocks).
const (
	opCommit  = 'M' // manifest → (nothing); refused = a referenced chunk is not stored
	opResolve = 'R' // key, pin byte → manifest; refused = no commit under key
	opUnpin   = 'U' // key → (nothing); never refused
)

// HashChunk returns the content address of a chunk: the lowercase hex
// SHA-256 of its bytes. The same bytes always hash to the same address,
// no matter which encoder, buffer, or node produced them.
func HashChunk(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Manifest is one commit: a dataset key mapped to the ordered chunk
// hashes of each partition. Parts[i] lists partition i's chunks in
// order; a partition with no data holds an empty list.
type Manifest struct {
	Key   string
	Parts [][]string
}

// Clone deep-copies the manifest.
func (m *Manifest) Clone() *Manifest {
	c := &Manifest{Key: m.Key, Parts: make([][]string, len(m.Parts))}
	for i, p := range m.Parts {
		c.Parts[i] = append([]string(nil), p...)
	}
	return c
}

// chunkEntry is one stored chunk with its manifest reference count.
type chunkEntry struct {
	data []byte
	refs int
}

// CommitStats is a point-in-time summary of a CommitStore.
type CommitStats struct {
	Chunks    int
	Manifests int
	UsedBytes int64
	// Hits and Misses count Resolve outcomes; Commits counts accepted
	// manifests; DedupPuts counts chunk puts that found their content
	// already stored; GCRuns and GCCollected summarize garbage
	// collection activity.
	Hits        int64
	Misses      int64
	Commits     int64
	DedupPuts   int64
	GCRuns      int64
	GCCollected int64
}

// CommitStore is the in-memory content-addressed commit store. It is
// safe for concurrent use; chunks are immutable once stored.
type CommitStore struct {
	mu        sync.Mutex
	chunks    map[string]*chunkEntry
	manifests map[string]*Manifest
	pins      map[string]int
	used      int64

	hits, misses, commits, dedup, gcRuns, gcCollected int64
}

// NewCommitStore returns an empty commit store.
func NewCommitStore() *CommitStore {
	return &CommitStore{
		chunks:    make(map[string]*chunkEntry),
		manifests: make(map[string]*Manifest),
		pins:      make(map[string]int),
	}
}

// PutChunk stores a chunk and returns its content address. Putting the
// same bytes twice is free: the second put deduplicates against the
// first.
func (s *CommitStore) PutChunk(b []byte) string {
	h := HashChunk(b)
	s.putChunkAt(h, b)
	return h
}

// putChunkAt stores b under h, which the caller has computed from b.
func (s *CommitStore) putChunkAt(h string, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[h]; ok {
		s.dedup++
		return
	}
	s.chunks[h] = &chunkEntry{data: append([]byte(nil), b...)}
	s.used += int64(len(b))
}

// chunkBlocks is a CommitStore's chunk space as a BlockStore, which is how
// the service serves it. The store recomputes the address of every put: a
// client that mishashed (or a corrupted transfer) must not poison the
// content space.
type chunkBlocks struct{ s *CommitStore }

func (c chunkBlocks) Put(hash string, b []byte) bool {
	if HashChunk(b) != hash {
		return false
	}
	c.s.putChunkAt(hash, b)
	return true
}

func (c chunkBlocks) Get(hash string) ([]byte, bool) { return c.s.GetChunk(hash) }

// GetChunk returns the chunk stored under the content address.
func (s *CommitStore) GetChunk(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chunks[hash]
	if !ok {
		return nil, false
	}
	return c.data, true
}

// HasChunk reports whether the content address is stored.
func (s *CommitStore) HasChunk(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chunks[hash]
	return ok
}

// Commit records a manifest. Every referenced chunk must already be
// stored — a commit can never dangle — and each reference bumps the
// chunk's ref count. Re-committing a key replaces the previous manifest,
// releasing its references.
func (s *CommitStore) Commit(m *Manifest) error {
	if m.Key == "" {
		return fmt.Errorf("storage commit: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, part := range m.Parts {
		for _, h := range part {
			if _, ok := s.chunks[h]; !ok {
				return fmt.Errorf("storage commit %q: chunk %.12s… not stored", m.Key, h)
			}
		}
	}
	if old, ok := s.manifests[m.Key]; ok {
		s.refs(old, -1)
	}
	clone := m.Clone()
	s.manifests[m.Key] = clone
	s.refs(clone, +1)
	s.commits++
	return nil
}

// refs adjusts the ref count of every chunk the manifest reaches.
func (s *CommitStore) refs(m *Manifest, d int) {
	for _, part := range m.Parts {
		for _, h := range part {
			if c, ok := s.chunks[h]; ok {
				c.refs += d
			}
		}
	}
}

// Resolve returns the manifest committed under key, or nil when none
// exists. With pin set, a found manifest is pinned: Delete refuses
// pinned keys until a matching Unpin, so a run that resolved a commit
// can trust its chunks to stay for the run's whole lifetime.
func (s *CommitStore) Resolve(key string, pin bool) *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[key]
	if !ok {
		s.misses++
		return nil
	}
	s.hits++
	if pin {
		s.pins[key]++
	}
	return m.Clone()
}

// Unpin releases one pin on key. Unpinning an unpinned key is a no-op.
func (s *CommitStore) Unpin(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[key] > 1 {
		s.pins[key]--
	} else {
		delete(s.pins, key)
	}
}

// Delete removes the manifest committed under key, releasing its chunk
// references. Pinned keys are refused.
func (s *CommitStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[key] > 0 {
		return fmt.Errorf("storage delete %q: pinned", key)
	}
	m, ok := s.manifests[key]
	if !ok {
		return nil
	}
	s.refs(m, -1)
	delete(s.manifests, key)
	return nil
}

// GC collects every chunk no manifest references, returning the chunk
// count and byte volume reclaimed. A chunk reachable from any live
// commit has refs > 0 and is never collected.
func (s *CommitStore) GC() (chunks int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for h, c := range s.chunks {
		if c.refs <= 0 {
			chunks++
			bytes += int64(len(c.data))
			s.used -= int64(len(c.data))
			delete(s.chunks, h)
		}
	}
	s.gcRuns++
	s.gcCollected += int64(chunks)
	return chunks, bytes
}

// Keys returns the committed manifest keys, sorted.
func (s *CommitStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.manifests))
	for k := range s.manifests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats returns a point-in-time summary.
func (s *CommitStore) Stats() CommitStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CommitStats{
		Chunks:      len(s.chunks),
		Manifests:   len(s.manifests),
		UsedBytes:   s.used,
		Hits:        s.hits,
		Misses:      s.misses,
		Commits:     s.commits,
		DedupPuts:   s.dedup,
		GCRuns:      s.gcRuns,
		GCCollected: s.gcCollected,
	}
}

// CommitService serves one CommitStore over the simulated network. The
// nodes all answer for the same store — like the stable Service, several
// nodes spread the transfer bandwidth while the key space stays single
// and consistent — so clients route each operation by hash purely for
// load spreading.
type CommitService struct {
	store *CommitStore
	nodes []*simnet.Node
	stop  chan struct{}

	mu      sync.Mutex
	started bool
}

// NewCommitService creates a service exposing store on the given nodes.
func NewCommitService(store *CommitStore, nodes []*simnet.Node) *CommitService {
	return &CommitService{store: store, nodes: nodes, stop: make(chan struct{})}
}

// NodeIDs returns the serving node ids in service order.
func (s *CommitService) NodeIDs() []string {
	ids := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		ids[i] = n.ID()
	}
	return ids
}

// Start launches the server loop on every serving node.
func (s *CommitService) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("storage: commit service already started")
	}
	s.started = true
	for _, n := range s.nodes {
		l, err := n.Listen()
		if err != nil {
			return fmt.Errorf("storage: commit node %s: %w", n.ID(), err)
		}
		go ServeBlocks(l, chunkBlocks{s.store}, nil, s.stop, s.handleManifestOp)
	}
	return nil
}

// Close stops the accept loops. Existing connections drain on their own.
func (s *CommitService) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		select {
		case <-s.stop:
		default:
			close(s.stop)
		}
	}
}

// handleManifestOp serves the ops ServeBlocks hands on: the three that
// touch manifests.
func (s *CommitService) handleManifestOp(op byte, e *data.Encoder, d *data.Decoder) error {
	switch op {
	case opCommit:
		m, err := readManifest(d)
		if err != nil {
			return err
		}
		return Answer(e, s.store.Commit(m) == nil, nil)
	case opResolve:
		key, err := d.String()
		if err != nil {
			return err
		}
		pin, err := d.Byte()
		if err != nil {
			return err
		}
		m := s.store.Resolve(key, pin == 1)
		return Answer(e, m != nil, func(e *data.Encoder) error { return writeManifest(e, m) })
	case opUnpin:
		key, err := d.String()
		if err != nil {
			return err
		}
		s.store.Unpin(key)
		return Answer(e, true, nil)
	default:
		return fmt.Errorf("storage: unknown commit op %q", op)
	}
}

func writeManifest(e *data.Encoder, m *Manifest) error {
	if err := e.String(m.Key); err != nil {
		return err
	}
	if err := e.Uvarint(uint64(len(m.Parts))); err != nil {
		return err
	}
	for _, part := range m.Parts {
		if err := e.Uvarint(uint64(len(part))); err != nil {
			return err
		}
		for _, h := range part {
			if err := e.String(h); err != nil {
				return err
			}
		}
	}
	return nil
}

func readManifest(d *data.Decoder) (*Manifest, error) {
	key, err := d.String()
	if err != nil {
		return nil, err
	}
	np, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if np > 1<<20 {
		return nil, fmt.Errorf("storage: manifest with %d parts", np)
	}
	m := &Manifest{Key: key, Parts: make([][]string, 0, min(np, data.MaxPrealloc))}
	for i := uint64(0); i < np; i++ {
		nc, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if nc > 1<<20 {
			return nil, fmt.Errorf("storage: manifest part with %d chunks", nc)
		}
		part := make([]string, 0, min(nc, data.MaxPrealloc))
		for j := uint64(0); j < nc; j++ {
			h, err := d.String()
			if err != nil {
				return nil, err
			}
			part = append(part, h)
		}
		m.Parts = append(m.Parts, part)
	}
	return m, nil
}

// CommitClient accesses a CommitService from one cluster node through a
// Transport — the runtime hands in its pooled, policy-wrapped transport,
// so commit traffic gets the same connection reuse, deadlines, and
// breaker treatment as the rest of the data plane.
type CommitClient struct {
	t     Transport
	nodes []string
}

// NewCommitClient returns a client over the transport. nodes must be the
// service's NodeIDs.
func NewCommitClient(t Transport, nodes []string) *CommitClient {
	return &CommitClient{t: t, nodes: nodes}
}

func (c *CommitClient) nodeFor(key string) string {
	return c.nodes[int(data.HashKey(key)%uint64(len(c.nodes)))]
}

// PutChunk stores a chunk, returning its content address. Idempotent:
// re-putting stored content is acknowledged without rewriting.
func (c *CommitClient) PutChunk(payload []byte) (string, error) {
	hash := HashChunk(payload)
	if err := StoreBlock(c.t, "casput", c.nodeFor(hash), hash, payload); err != nil {
		return "", err
	}
	return hash, nil
}

// GetChunk fetches a chunk by content address. Missing chunks return
// ErrNotFound.
func (c *CommitClient) GetChunk(hash string) ([]byte, error) {
	return FetchBlock(c.t, "casget", c.nodeFor(hash), hash)
}

// GetChunks fetches many chunks in batched rounds (calls). A chunk that
// could not be had — collected, or behind a stream that died — has a nil
// payload and its own error; the rest of the batch is unaffected.
func (c *CommitClient) GetChunks(hashes []string) ([][]byte, []error) {
	payloads := make([][]byte, len(hashes))
	errs := c.calls("casget", hashes, func(i int) Round { return getRound(hashes[i], &payloads[i]) })
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("get chunk %.12s…: %w", hashes[i], err)
		}
	}
	return payloads, errs
}

// calls runs one round per key in batches of MaxRounds, concurrently. Every
// serving node answers for the whole store, so a batch goes to the node of
// its first key; round builds key i's round, and its error comes back at i.
func (c *CommitClient) calls(name string, keys []string, round func(i int) Round) []error {
	errs := make([]error, len(keys))
	_ = Fanout((len(keys)+MaxRounds-1)/MaxRounds, MaxFetchWorkers, func(b int) error {
		lo := b * MaxRounds
		rounds := make([]Round, min(MaxRounds, len(keys)-lo))
		for i := range rounds {
			rounds[i] = round(lo + i)
		}
		copy(errs[lo:], Calls(c.t, name, c.nodeFor(keys[lo]), rounds))
		return nil
	})
	return errs
}

// Commit records a manifest. Every referenced chunk must already be
// stored.
func (c *CommitClient) Commit(m *Manifest) error {
	err := Call(c.t, "commit", c.nodeFor(m.Key), opCommit,
		func(e *data.Encoder) error { return writeManifest(e, m) }, nil, errDangling)
	if err != nil {
		return fmt.Errorf("storage commit %q: %w", m.Key, err)
	}
	return nil
}

var errDangling = errors.New("rejected (dangling chunk?)")

// resolveRound is the resolve of key, which stores the manifest through dst.
func resolveRound(key string, pin bool, dst **Manifest) Round {
	return Round{opResolve, func(e *data.Encoder) error {
		if err := e.String(key); err != nil {
			return err
		}
		p := byte(0)
		if pin {
			p = 1
		}
		return e.Byte(p)
	}, func(d *data.Decoder) (err error) { *dst, err = readManifest(d); return err }, ErrNotFound{Key: key}}
}

// Resolve returns the manifest committed under key, or nil when none
// exists (a miss is not an error). With pin set the commit is pinned on
// the store until Unpin.
func (c *CommitClient) Resolve(key string, pin bool) (*Manifest, error) {
	var m *Manifest
	err := call(c.t, "resolve", c.nodeFor(key), resolveRound(key, pin, &m))
	if err != nil && !errors.Is(err, ErrNotFound{}) {
		return nil, fmt.Errorf("storage resolve %q: %w", key, err)
	}
	return m, nil
}

// ResolveAll resolves many keys in batched rounds (calls). The manifest of
// a key is nil when there is none or the store could not be asked, which
// to a prober are the same miss.
func (c *CommitClient) ResolveAll(keys []string, pin bool) []*Manifest {
	found := make([]*Manifest, len(keys))
	c.calls("resolve", keys, func(i int) Round { return resolveRound(keys[i], pin, &found[i]) })
	return found
}

// Unpin releases one pin on key.
func (c *CommitClient) Unpin(key string) error {
	err := Call(c.t, "unpin", c.nodeFor(key), opUnpin,
		func(e *data.Encoder) error { return e.String(key) }, nil, errRejected)
	if err != nil {
		return fmt.Errorf("storage unpin %q: %w", key, err)
	}
	return nil
}
