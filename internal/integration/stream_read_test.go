package integration

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/trace"
)

// TestUncachedReadStreams runs an uncached read → ParDo → combine job on
// every engine and checks, record by record, that no task builds a source
// partition as a slice: each partition's generator is asked for its next
// record only after the ParDo has consumed the previous one.
func TestUncachedReadStreams(t *testing.T) {
	const parts, perPart, keys = 6, 400, 7
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			t.Parallel()
			var consumed [parts]atomic.Int64
			var ahead atomic.Int64 // records generated before the previous one was consumed
			src := &dataflow.FuncSource{Partitions: parts, Gen: func(p int) (int, func() data.Record) {
				consumed[p].Store(0)
				i := int64(-1)
				return perPart, func() data.Record {
					i++
					if consumed[p].Load() != i {
						ahead.Add(1)
					}
					return data.KV(int64(p), i)
				}
			}}
			kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
			p := dataflow.NewPipeline()
			p.Read("read", src, data.KVCoder{K: data.Int64Coder, V: data.Int64Coder}).
				ParDo("consume", dataflow.DoFunc(func(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
					i := r.Value.(int64)
					consumed[r.Key.(int64)].Store(i + 1)
					emit(data.KV(fmt.Sprintf("k%d", i%keys), int64(1)))
					return nil
				}), kv).
				CombinePerKey("count", dataflow.SumInt64Fn{}, kv, dataflow.WithAccumulatorCoder(kv))

			recs := singleOutput(t, eng.run(t, p.Graph(), trace.RateNone, 17))
			want := make(map[string]int64)
			for i := 0; i < perPart; i++ {
				want[fmt.Sprintf("k%d", i%keys)] += parts
			}
			if len(recs) != len(want) {
				t.Fatalf("got %d keys, want %d", len(recs), len(want))
			}
			for _, r := range recs {
				if got := r.Value.(int64); got != want[r.Key.(string)] {
					t.Errorf("%v = %d, want %d", r.Key, got, want[r.Key.(string)])
				}
			}
			if n := ahead.Load(); n != 0 {
				t.Errorf("%d records were generated before the previous one was consumed: a read built its partition", n)
			}
		})
	}
}
