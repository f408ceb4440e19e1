package runtime

import (
	"io"
	"testing"

	"pado/internal/data"
	"pado/internal/testutil"
)

// The native fuzz targets of the runtime's wire decoders (ROADMAP aim 3:
// decoders survive hostile bytes). Seeds are round-trip encodings.

var fuzzSections = []pushSection{
	{Tag: "", Aggregated: true, Payload: []byte("acc-data")},
	{Tag: "side", Payload: nil},
}

func fuzzSeed(f *testing.F, write func(*data.Encoder) error) []byte {
	f.Helper()
	seed, err := data.Encoded(write)
	if err != nil {
		f.Fatal(err)
	}
	return seed
}

func FuzzReadPushFrame(f *testing.F) {
	testutil.FuzzDecoder(f, func(r io.Reader) error {
		_, err := readPushFrame(data.NewDecoder(r))
		return err
	}, fuzzSeed(f, func(e *data.Encoder) error {
		return writePushFrame(e, &pushFrame{Job: 1, Stage: 3, Gen: 2, RecvIdx: 1,
			Cover: []senderRef{{Index: 5, Attempt: 1}, {Index: 9}}, Sections: fuzzSections})
	}))
}

func FuzzReadSections(f *testing.F) {
	testutil.FuzzDecoder(f, func(r io.Reader) error {
		_, err := readSections(data.NewDecoder(r))
		return err
	}, fuzzSeed(f, func(e *data.Encoder) error { return writeSections(e, fuzzSections) }),
		// A combined task commit's chunk: one aggregated section of
		// (key, accumulator) records.
		fuzzSeed(f, func(e *data.Encoder) error {
			acc, err := data.EncodeAll(data.KVCoder{K: data.StringCoder, V: data.Int64Coder},
				[]data.Record{data.KV("w001", int64(7)), data.KV("w002", int64(11))})
			if err != nil {
				return err
			}
			return writeSections(e, []pushSection{{Aggregated: true, Payload: acc}})
		}),
		// One section whose payload claims 256 MiB and delivers nothing.
		fuzzSeed(f, func(e *data.Encoder) error {
			e.Uvarint(1)
			e.String("")
			e.Byte(0)
			return e.Uvarint(1 << 28)
		}))
}

func FuzzReadHeartbeat(f *testing.F) {
	seed := fuzzSeed(f, func(e *data.Encoder) error {
		return writeHeartbeat(e, &heartbeatFrame{ID: "t3", Seq: 41, Open: []string{"r1", "t7"}})
	})
	testutil.FuzzDecoder(f, func(r io.Reader) error {
		_, err := readHeartbeat(data.NewDecoder(r))
		return err
	}, seed[1:]) // readHeartbeat starts after the op byte
}

func FuzzReadResultFrame(f *testing.F) {
	testutil.FuzzDecoder(f, func(r io.Reader) error {
		_, err := readResultFrame(data.NewDecoder(r))
		return err
	}, fuzzSeed(f, func(e *data.Encoder) error {
		return writeResultFrame(e, &resultFrame{Job: 3, Stage: 4, Gen: 2, Index: 7, Attempt: 1, Payload: []byte{1, 2, 3}})
	}))
}
