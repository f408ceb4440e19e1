package storage

import (
	"fmt"
	"io"
	"testing"

	"pado/internal/data"
	"pado/internal/testutil"
)

func FuzzReadManifest(f *testing.F) {
	seed, err := data.Encoded(func(e *data.Encoder) error {
		return writeManifest(e, &Manifest{Key: "stage/abc",
			Parts: [][]string{{HashChunk([]byte("a"))}, {}, {HashChunk([]byte("b")), HashChunk([]byte("c"))}}})
	})
	if err != nil {
		f.Fatal(err)
	}
	testutil.FuzzDecoder(f, func(r io.Reader) error {
		_, err := readManifest(data.NewDecoder(r))
		return err
	}, seed)
}

// FuzzExchange feeds hostile bytes to the reading half of a batched round
// as the peer's answer stream: three gets, seeded with a miss in the middle
// and with a verdict byte that is none. Whatever arrives, the count of
// answered rounds and the per-round verdicts must agree with the error.
func FuzzExchange(f *testing.F) {
	batch, err := data.Encoded(func(e *data.Encoder) error {
		if err := Answer(e, true, func(e *data.Encoder) error { return e.Bytes([]byte("first")) }); err != nil {
			return err
		}
		if err := Answer(e, false, nil); err != nil {
			return err
		}
		return Answer(e, true, func(e *data.Encoder) error { return e.Bytes([]byte("third")) })
	})
	if err != nil {
		f.Fatal(err)
	}
	testutil.FuzzDecoder(f, func(r io.Reader) error {
		var payloads [3][]byte
		rounds := []Round{getRound("a", &payloads[0]), getRound("b", &payloads[1]), getRound("c", &payloads[2])}
		verdicts := make([]error, len(rounds))
		n, err := exchange(data.NewEncoder(io.Discard), data.NewDecoder(r), rounds, verdicts)
		if n < 0 || n > len(rounds) || (err == nil) != (n == len(rounds)) {
			panic(fmt.Sprintf("exchange answered %d of %d rounds with error %v", n, len(rounds), err))
		}
		for i, v := range verdicts {
			if v != nil && (i >= n || !IsReply(v) || payloads[i] != nil) {
				panic(fmt.Sprintf("round %d of %d answered: verdict %v, payload %q", i, n, v, payloads[i]))
			}
		}
		return err
	}, batch, []byte{respOK, 0, '?'})
}
