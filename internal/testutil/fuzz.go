package testutil

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// A decoder fed hostile bytes must reserve memory for what has arrived,
// not for what a length prefix claims: an input of at most fuzzShortInput
// bytes may make it allocate at most fuzzAllocBound.
const (
	fuzzShortInput = 4 << 10
	fuzzAllocBound = 2 << 20
)

// FuzzDecoder is the body of a wire decoder's native fuzz target. It seeds
// the corpus with each seed — a valid encoding — and its first half, runs
// decode over every input, and fails when decode panics (the fuzz engine
// reports that) or a short input allocates past the bound. decode's error
// is not a finding: refusing garbage is what a decoder is for.
func FuzzDecoder(f *testing.F, decode func(io.Reader) error, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > fuzzShortInput {
			_ = decode(bytes.NewReader(in))
			return
		}
		// TotalAlloc is process-wide, so a stray goroutine of an earlier
		// test can land a burst inside one measurement. That does not
		// repeat; a decoder trusting a length prefix does.
		var allocated uint64
		for try := 0; try < 3; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_ = decode(bytes.NewReader(in))
			runtime.ReadMemStats(&m1)
			if allocated = m1.TotalAlloc - m0.TotalAlloc; allocated <= fuzzAllocBound {
				return
			}
		}
		t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(in), allocated, fuzzAllocBound)
	})
}
