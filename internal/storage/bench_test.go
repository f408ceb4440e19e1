package storage

import (
	"fmt"
	"testing"

	"pado/internal/data"
)

// BenchmarkFetchPooled and BenchmarkFetchFreshDial compare a pooled fetch
// against dialing (and building codec state) per operation.
func BenchmarkFetchPooled(b *testing.B) {
	blk := make([]byte, 16<<10)
	f := newPoolFixture(b, map[string][]byte{"blk": blk})
	b.ReportAllocs()
	b.SetBytes(int64(len(blk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FetchBlock(f.pool, "fetch", "server", "blk"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchFreshDial(b *testing.B) {
	blk := make([]byte, 16<<10)
	f := newPoolFixture(b, map[string][]byte{"blk": blk})
	b.ReportAllocs()
	b.SetBytes(int64(len(blk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := f.net.Dial("client", "server")
		if err != nil {
			b.Fatal(err)
		}
		e := data.NewEncoder(conn)
		d := data.NewDecoder(conn)
		if err := e.Byte(opGet); err != nil {
			b.Fatal(err)
		}
		if err := e.String("blk"); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		resp, err := d.Byte()
		if err != nil || resp != respOK {
			b.Fatalf("resp %v %v", resp, err)
		}
		if _, err := d.Bytes(0); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkFanout measures the fan-out scheduler's overhead against the
// serial loop it replaces, at varying widths.
func BenchmarkFanout(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Fanout(n, MaxFetchWorkers, func(int) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
