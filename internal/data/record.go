// Package data defines the record model and serialization layer shared by
// every engine in the repository.
//
// Records are key/value pairs. All cross-node movement (pushes, shuffle
// pulls, checkpoints, broadcasts) carries records in an encoded form
// produced by a Coder, so transfer sizes are real byte counts and the
// bandwidth model in simnet sees realistic volumes.
package data

import (
	"fmt"
	"math"
)

// Record is a single element of a distributed collection. Key may be nil
// for keyless collections (e.g. global aggregation inputs).
type Record struct {
	Key   any
	Value any
}

// KV constructs a Record.
func KV(key, value any) Record { return Record{Key: key, Value: value} }

// String renders the record for debugging.
func (r Record) String() string { return fmt.Sprintf("(%v, %v)", r.Key, r.Value) }

// HashKey maps a record key to a stable 64-bit hash used for partitioning.
// The supported key types cover everything the built-in coders produce.
// It is FNV-1a (hash/fnv's New64a) over a string's bytes or a number's
// eight little-endian bytes, computed inline so it does not allocate; any
// other key hashes its %v rendering.
func HashKey(k any) uint64 {
	switch v := k.(type) {
	case nil:
		return 0
	case string:
		return fnvString(v)
	case int:
		return fnvUint64(uint64(int64(v)))
	case int32:
		return fnvUint64(uint64(int64(v)))
	case int64:
		return fnvUint64(uint64(v))
	case uint64:
		return fnvUint64(v)
	case float64:
		return fnvUint64(math.Float64bits(v))
	case bool:
		if v {
			return fnvUint64(1)
		}
		return fnvUint64(0)
	default:
		return fnvString(fmt.Sprint(v))
	}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvUint64(v uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= fnvPrime64
	}
	return h
}

// Partition maps a key to one of n partitions.
func Partition(key any, n int) int {
	if n <= 1 {
		return 0
	}
	return int(HashKey(key) % uint64(n))
}
