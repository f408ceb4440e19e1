package workloads

import (
	"testing"

	"pado/internal/dataflow"
)

// BenchmarkMRSource reads one partition of the default MR input per
// iteration, streamed record by record (an uncached read) or collected
// into an exactly sized slice (a cached read, dataflow.ReadAll).
func BenchmarkMRSource(b *testing.B) {
	cfg := DefaultMRConfig()
	src := MRSource(cfg)
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it, err := src.Open(i % cfg.Partitions)
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, ok, err := it.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
		}
	})
	b.Run("collect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dataflow.ReadAll(src, i%cfg.Partitions); err != nil {
				b.Fatal(err)
			}
		}
	})
}
