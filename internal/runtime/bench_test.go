package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"pado/internal/data"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// benchNet is a client and a server node; the server acknowledges every
// push.
func benchNet(b *testing.B) *simnet.Network {
	b.Helper()
	net := simnet.New(simnet.Config{})
	if _, err := net.AddNode("client"); err != nil {
		b.Fatal(err)
	}
	srv, err := net.AddNode("server")
	if err != nil {
		b.Fatal(err)
	}
	l, err := srv.Listen()
	if err != nil {
		b.Fatal(err)
	}
	go storage.ServeBlocks(l, storage.NewLocalStore(), nil, nil, func(op byte, e *data.Encoder, d *data.Decoder) error {
		if op != framePush {
			return fmt.Errorf("unexpected frame %q", op)
		}
		if _, err := readPushFrame(d); err != nil {
			return err
		}
		return storage.Answer(e, true, nil)
	})
	return net
}

func benchFrame(payloadLen int) *pushFrame {
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &pushFrame{
		Stage: 2, Gen: 1, RecvIdx: 0, Frag: 1,
		Cover:    []senderRef{{Index: 3, Attempt: 0}},
		Sections: []pushSection{{Tag: "", Payload: payload}},
	}
}

// BenchmarkPushRoundTrip measures one acknowledged push over a pooled
// connection — the steady-state cost of the boundary escape path.
func BenchmarkPushRoundTrip(b *testing.B) {
	pool := storage.NewPoolTransport(benchNet(b), "client")
	defer pool.Close()
	f := benchFrame(16 << 10)
	b.ReportAllocs()
	b.SetBytes(16 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sendPush(pool, "server", f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameEncode / BenchmarkFrameDecode measure push-frame codec
// cost in isolation (no network).
func BenchmarkFrameEncode(b *testing.B) {
	f := benchFrame(16 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frameBytes(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	blob, err := frameBytes(benchFrame(16 << 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readPushFrame(data.NewDecoder(bytes.NewReader(blob))); err != nil {
			b.Fatal(err)
		}
	}
}
