package storage

import (
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
