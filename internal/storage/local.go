// Package storage provides the two storage substrates of the evaluation
// environment: per-container local stores (destroyed on eviction, like a
// transient container's local disk) and a remote stable-storage service
// hosted on reserved nodes (the GlusterFS/HDFS stand-in that
// Spark-checkpoint writes through).
package storage

import (
	"fmt"
	"sort"
	"sync"
)

// LocalStore is an in-memory block store scoped to one container. When
// the container is evicted the store is simply dropped, modeling the
// paper's assumption that all transient-container state, including local
// disk, is destroyed on eviction (§2.1).
type LocalStore struct {
	mu     sync.Mutex
	blocks map[string][]byte
	used   int64
}

// NewLocalStore returns an empty store.
func NewLocalStore() *LocalStore {
	return &LocalStore{blocks: make(map[string][]byte)}
}

// Put stores a block, replacing any previous content under the key. It
// never refuses one (the result is BlockStore's).
func (s *LocalStore) Put(key string, b []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.blocks[key]; ok {
		s.used -= int64(len(old))
	}
	s.blocks[key] = b
	s.used += int64(len(b))
	return true
}

// Get returns the block and whether it exists.
func (s *LocalStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[key]
	return b, ok
}

// Delete removes a block if present.
func (s *LocalStore) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.blocks[key]; ok {
		s.used -= int64(len(old))
		delete(s.blocks, key)
	}
}

// Has reports whether the key exists.
func (s *LocalStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[key]
	return ok
}

// UsedBytes returns the total stored payload size.
func (s *LocalStore) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of stored blocks.
func (s *LocalStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// Keys returns the stored keys, sorted.
func (s *LocalStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Clear drops every block.
func (s *LocalStore) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks = make(map[string][]byte)
	s.used = 0
}

// ErrNotFound is returned by remote gets for missing blocks. It is a peer
// reply (IsReply): a miss is a healthy negative response, not a broken
// stream.
type ErrNotFound struct{ Key string }

// Error implements error.
func (e ErrNotFound) Error() string { return fmt.Sprintf("storage: block %q not found", e.Key) }

func (ErrNotFound) peerReply() {}

// Is matches any ErrNotFound regardless of key, so errors.Is(err,
// storage.ErrNotFound{}) classifies misses without knowing the key.
func (e ErrNotFound) Is(target error) bool {
	_, ok := target.(ErrNotFound)
	return ok
}
