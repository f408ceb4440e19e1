package exec

import (
	"fmt"
	"testing"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
)

func sumTable(keys int) *AccTable {
	t := NewAccTable(dataflow.SumInt64Fn{}, false)
	for i := 0; i < keys; i++ {
		t.AddRecord(data.KV(fmt.Sprintf("page-%06d", i), int64(i)))
	}
	return t
}

// TestExtractAllocs: Extract hashes each key once and sorts on the stored
// hashes, so it allocates at most one record per key (SumInt64Fn boxes the
// extracted value) plus a constant.
func TestExtractAllocs(t *testing.T) {
	const slack = 4
	for _, keys := range []int{1_000, 10_000} {
		tbl := sumTable(keys)
		if n := testing.AllocsPerRun(5, func() { tbl.Extract() }); n > float64(keys+slack) {
			t.Errorf("Extract of %d keys allocates %.0f/op, want <= %d", keys, n, keys+slack)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	for _, keys := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			tbl := sumTable(keys)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl.Extract()
			}
		})
	}
}

// BenchmarkFragmentFold runs the fold chain over 10 000 records the way
// both engines do (fused, folding through a sink) and the way RunFragment
// does (every output held, then FoldPartitions).
func BenchmarkFragmentFold(b *testing.B) {
	c := newFoldChain(b)
	recs := make([]data.Record, 10_000)
	for i := range recs {
		recs[i] = data.KV(fmt.Sprintf("k%d", i%997), int64(i))
	}
	var charges []int
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			charges = charges[:0]
			_, fold := FoldSink(c.op, 8)
			if _, err := Run(c.g, c.ops(), c.inputs(recs, &charges),
				Outputs{Sinks: map[dag.VertexID]func(data.Record){c.scale: fold}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("collect-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			charges = charges[:0]
			outs, err := RunFragment(c.g, c.ops(), c.inputs(recs, &charges))
			if err != nil {
				b.Fatal(err)
			}
			FoldPartitions(c.op, 8, outs[c.scale])
		}
	})
}
