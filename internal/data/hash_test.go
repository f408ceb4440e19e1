package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// fnvRef is hash/fnv's FNV-1a over b: what HashKey computed before it was
// inlined, and so what every partition, golden and commit-store key was
// derived from.
func fnvRef(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func le(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

type point struct{ X, Y int }

// TestHashKeyMatchesFNV pins HashKey to FNV-1a over the same bytes for
// every supported key type, so no record changes partition.
func TestHashKeyMatchesFNV(t *testing.T) {
	cases := []struct {
		key  any
		want uint64
	}{
		{"", fnvRef(nil)},
		{"page-42", fnvRef([]byte("page-42"))},
		{"ünïcode ✓", fnvRef([]byte("ünïcode ✓"))},
		{0, fnvRef(le(0))},
		{-7, fnvRef(le(math.MaxUint64 - 6))},
		{int32(-123456), fnvRef(le(math.MaxUint64 - 123455))},
		{int64(1) << 40, fnvRef(le(1 << 40))},
		{int64(math.MinInt64), fnvRef(le(1 << 63))},
		{uint64(math.MaxUint64), fnvRef(le(math.MaxUint64))},
		{3.5, fnvRef(le(math.Float64bits(3.5)))},
		{math.Inf(-1), fnvRef(le(math.Float64bits(math.Inf(-1))))},
		{true, fnvRef(le(1))},
		{false, fnvRef(le(0))},
		{point{1, 2}, fnvRef([]byte(fmt.Sprintf("%v", point{1, 2})))},
		{nil, 0},
	}
	for _, c := range cases {
		if got := HashKey(c.key); got != c.want {
			t.Errorf("HashKey(%#v) = %#x, want FNV-1a %#x", c.key, got, c.want)
		}
	}
}

// TestHashKeyAllocs: hashing a key of a built-in coder's type allocates
// nothing; it runs once per shuffled record and per extracted key.
func TestHashKeyAllocs(t *testing.T) {
	for _, key := range []any{"page-42", int64(1) << 40, 1 << 20, 3.5} {
		if n := testing.AllocsPerRun(100, func() { HashKey(key) }); n != 0 {
			t.Errorf("HashKey(%T) allocates %.1f/op, want 0", key, n)
		}
	}
}

func BenchmarkHashKey(b *testing.B) {
	keys := []any{"page-00042", int64(1) << 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashKey(keys[i&1])
	}
}
