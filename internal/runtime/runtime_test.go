package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// buildWordCount constructs a Read -> Map -> CombinePerKey pipeline over
// deterministic synthetic data and returns the pipeline plus the expected
// per-key sums.
func buildWordCount(parts, recsPerPart int) (*dataflow.Pipeline, map[string]int64) {
	src := &dataflow.FuncSource{
		Partitions: parts,
		Gen: func(p int) (int, func() data.Record) {
			rng := rand.New(rand.NewSource(int64(p) + 1))
			return recsPerPart, func() data.Record {
				return data.KV(fmt.Sprintf("w%03d", rng.Intn(100)), int64(rng.Intn(10)))
			}
		},
	}
	expect := make(map[string]int64)
	for p := 0; p < parts; p++ {
		recs, _ := dataflow.ReadAll(src, p)
		for _, r := range recs {
			expect[r.Key.(string)] += r.Value.(int64)
		}
	}

	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	c := p.Read("read-views", src, kv)
	mapped := c.ParDo("map", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv)
	mapped.CombinePerKey("sum", dataflow.SumInt64Fn{}, kv,
		dataflow.WithAccumulatorCoder(kv))
	return p, expect
}

func newTestCluster(t *testing.T, transient, reserved int, rate trace.Rate) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Transient:   transient,
		Reserved:    reserved,
		Slots:       4,
		Lifetimes:   trace.Lifetimes(rate),
		Scale:       vtime.NewScale(50 * time.Millisecond),
		MinLifetime: 30 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return cl
}

func checkWordCount(t *testing.T, res *Result, expect map[string]int64) {
	t.Helper()
	var recs []data.Record
	for _, out := range res.Outputs {
		recs = out
	}
	if len(recs) != len(expect) {
		t.Fatalf("got %d keys, want %d", len(recs), len(expect))
	}
	for _, r := range recs {
		if expect[r.Key.(string)] != r.Value.(int64) {
			t.Errorf("key %v: got %d want %d", r.Key, r.Value, expect[r.Key.(string)])
		}
	}
}

func TestWordCountNoEvictions(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	cl := newTestCluster(t, 4, 2, trace.RateNone)
	res, err := Run(context.Background(), cl, p.Graph(), Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	checkWordCount(t, res, expect)
	if res.Metrics.RelaunchedTasks != 0 {
		t.Errorf("unexpected relaunches: %d", res.Metrics.RelaunchedTasks)
	}
}

func TestWordCountUnderEvictions(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	cl := newTestCluster(t, 4, 2, trace.RateHigh)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, p.Graph(), Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out under evictions")
	}
	checkWordCount(t, res, expect)
}
