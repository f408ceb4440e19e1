package pado_test

import (
	"context"
	"testing"
	"time"

	"pado"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/vtime"
)

// TestFacadeQuickstart exercises the public API end to end: author a
// pipeline, run it under evictions, check the result.
func TestFacadeQuickstart(t *testing.T) {
	src := &dataflow.FuncSource{
		Partitions: 4,
		Gen: func(p int) (int, func() pado.Record) {
			recs := []pado.Record{
				pado.KV("k", int64(p)),
				pado.KV("only", int64(1)),
			}
			return len(recs), func() pado.Record {
				r := recs[0]
				recs = recs[1:]
				return r
			}
		},
	}
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := pado.NewPipeline()
	p.Read("read", src, kv).
		ParDo("id", dataflow.MapFunc(func(r pado.Record) pado.Record { return r }), kv).
		CombinePerKey("sum", pado.SumInt64Fn{}, kv)

	cl, err := pado.NewCluster(pado.ClusterConfig{
		Transient: 3,
		Reserved:  2,
		Lifetimes: pado.EvictionLifetimes(pado.EvictionHigh),
		Scale:     vtime.NewScale(30 * time.Millisecond),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := pado.Run(ctx, cl, p, pado.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, recs := range res.Outputs {
		for _, r := range recs {
			got[r.Key.(string)] = r.Value.(int64)
		}
	}
	if got["k"] != 6 || got["only"] != 4 {
		t.Errorf("outputs = %v", got)
	}
}

// TestFacadeCompile checks the plan-inspection entry point.
func TestFacadeCompile(t *testing.T) {
	src := &dataflow.FuncSource{Partitions: 2, Gen: func(int) (int, func() pado.Record) { return 0, nil }}
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := pado.NewPipeline()
	p.Read("read", src, kv).CombinePerKey("sum", pado.SumInt64Fn{}, kv)
	plan, err := pado.Compile(p, core.PlanConfig{ReduceParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 1 || !plan.Stages[0].RootReserved {
		t.Errorf("unexpected plan shape: %d stages", len(plan.Stages))
	}
}

func TestEvictionLifetimes(t *testing.T) {
	if pado.EvictionLifetimes(pado.EvictionNone) != nil {
		t.Error("none rate should have nil lifetimes")
	}
	if pado.EvictionLifetimes(pado.EvictionHigh).Empty() {
		t.Error("high rate distribution empty")
	}
}
