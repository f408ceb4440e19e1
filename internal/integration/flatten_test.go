package integration

import (
	"fmt"
	"testing"

	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/trace"
)

// TestFlattenAllEngines unions two sources and reduces over the union on
// every engine, under evictions — exercising multi-source fragments.
func TestFlattenAllEngines(t *testing.T) {
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	mkSrc := func(base int) *dataflow.FuncSource {
		return &dataflow.FuncSource{
			Partitions: 4,
			Gen: func(p int) (int, func() data.Record) {
				i := base - 1
				return 100, func() data.Record {
					i++
					return data.KV(fmt.Sprintf("k%02d", i%20), int64(i))
				}
			},
		}
	}
	build := func() *dataflow.Pipeline {
		p := dataflow.NewPipeline()
		a := p.Read("a", mkSrc(0), kv)
		b := p.Read("b", mkSrc(7), kv)
		dataflow.Flatten("union", a, b).
			CombinePerKey("sum", dataflow.SumInt64Fn{}, kv,
				dataflow.WithAccumulatorCoder(kv))
		return p
	}
	want := map[string]int64{}
	for _, base := range []int{0, 7} {
		src := mkSrc(base)
		for p := 0; p < 4; p++ {
			recs, _ := dataflow.ReadAll(src, p)
			for _, r := range recs {
				want[r.Key.(string)] += r.Value.(int64)
			}
		}
	}

	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			t.Parallel()
			recs := singleOutput(t, eng.run(t, build().Graph(), trace.RateMedium, 404))
			if len(recs) != len(want) {
				t.Fatalf("got %d keys, want %d", len(recs), len(want))
			}
			for _, r := range recs {
				if want[r.Key.(string)] != r.Value.(int64) {
					t.Fatalf("key %v: got %d want %d", r.Key, r.Value, want[r.Key.(string)])
				}
			}
		})
	}
}
