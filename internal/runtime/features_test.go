package runtime

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

// runWordCount executes the standard test pipeline under the given
// config and checks the result.
func runWordCount(t *testing.T, cl *cluster.Cluster, cfg Config) *Result {
	t.Helper()
	p, expect := buildWordCount(8, 400)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, p.Graph(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	checkWordCount(t, res, expect)
	return res
}

func TestPartialAggregationDisabledStillCorrect(t *testing.T) {
	cl := newTestCluster(t, 4, 2, trace.RateMedium)
	runWordCount(t, cl, Config{DisablePartialAggregation: true})
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	cl := newTestCluster(t, 4, 2, trace.RateMedium)
	runWordCount(t, cl, Config{DisableCache: true})
}

func TestPartialAggregationReducesPushedBytes(t *testing.T) {
	// With heavy key duplication, partial aggregation must shrink the
	// boundary traffic substantially.
	build := func() *dataflow.Pipeline {
		p, _ := buildWordCount(8, 400) // 100 distinct keys, 3200 records
		return p
	}
	run := func(cfg Config) int64 {
		cl := newTestCluster(t, 4, 2, trace.RateNone)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := Run(ctx, cl, build().Graph(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.BytesPushed
	}
	with := run(Config{})
	without := run(Config{DisablePartialAggregation: true})
	if with >= without {
		t.Errorf("partial aggregation did not reduce pushes: with=%d without=%d", with, without)
	}
}

func TestTerminalTransientStage(t *testing.T) {
	// A map-only pipeline ends on transient operators; results are
	// pushed to the master collector with the push-as-commit protocol.
	src := &dataflow.FuncSource{
		Partitions: 6,
		Gen: func(p int) (int, func() data.Record) {
			i := -1
			return 50, func() data.Record {
				i++
				return data.KV(fmt.Sprintf("p%d-%d", p, i), int64(i))
			}
		},
	}
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	p.Read("read", src, kv).
		ParDo("inc", dataflow.MapFunc(func(r data.Record) data.Record {
			return data.KV(r.Key, r.Value.(int64)+1)
		}), kv)

	for _, rate := range []trace.Rate{trace.RateNone, trace.RateHigh} {
		cl := newTestCluster(t, 4, 2, rate)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := Run(ctx, cl, p.Graph(), Config{})
		cancel()
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		var recs []data.Record
		for _, out := range res.Outputs {
			recs = out
		}
		if len(recs) != 300 {
			t.Fatalf("rate %v: got %d records, want 300", rate, len(recs))
		}
		seen := map[string]int64{}
		for _, r := range recs {
			seen[r.Key.(string)] = r.Value.(int64)
		}
		for p := 0; p < 6; p++ {
			for i := 0; i < 50; i++ {
				if seen[fmt.Sprintf("p%d-%d", p, i)] != int64(i)+1 {
					t.Fatalf("missing or wrong record p%d-%d", p, i)
				}
			}
		}
	}
}

func TestReservedFailureRecovery(t *testing.T) {
	// Kill a reserved container mid-job; §3.2.6 recovery must recompute
	// lost ancestor stages and still produce the exact model.
	cfg := workloads.MLRConfig{
		Partitions: 8, SamplesPerPart: 30, Features: 32, Classes: 4,
		NonZeros: 8, Iterations: 4, LearningRate: 0.5, Seed: 3,
	}
	want := workloads.MLRReference(cfg)

	cl, err := cluster.New(cluster.Config{
		Transient:   6,
		Reserved:    3,
		Slots:       4,
		Lifetimes:   trace.Lifetimes(trace.RateMedium),
		Scale:       vtime.NewScale(50 * time.Millisecond),
		MinLifetime: 40 * time.Millisecond,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(120 * time.Millisecond)
		for _, c := range cl.Containers(cluster.Reserved) {
			cl.FailReserved(c.ID, true)
			return
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, workloads.MLR(cfg).Graph(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	var model []float64
	for _, recs := range res.Outputs {
		if len(recs) != 1 {
			t.Fatalf("got %d model records", len(recs))
		}
		model = recs[0].Value.([]float64)
	}
	for i := range model {
		if math.Abs(model[i]-want[i]) > 1e-9 {
			t.Fatalf("model[%d] = %g, want %g", i, model[i], want[i])
		}
	}
}

func TestManualEvictionStorm(t *testing.T) {
	// Evict transient containers continuously and aggressively while an
	// iterative job runs; exactly-once commit semantics must hold.
	cfg := workloads.MLRConfig{
		Partitions: 8, SamplesPerPart: 20, Features: 32, Classes: 4,
		NonZeros: 8, Iterations: 3, LearningRate: 0.5, Seed: 9,
	}
	want := workloads.MLRReference(cfg)
	cl := newTestCluster(t, 6, 2, trace.RateNone)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(25 * time.Millisecond):
			}
			conts := cl.Containers(cluster.Transient)
			if len(conts) > 0 {
				cl.EvictNow(conts[i%len(conts)].ID)
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, workloads.MLR(cfg).Graph(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out under eviction storm")
	}
	for _, recs := range res.Outputs {
		model := recs[0].Value.([]float64)
		for i := range model {
			if math.Abs(model[i]-want[i]) > 1e-9 {
				t.Fatalf("model deviates at %d under storm", i)
			}
		}
	}
	if res.Metrics.Evictions == 0 {
		t.Error("storm produced no evictions")
	}
}

func TestDeterministicResultAcrossRuns(t *testing.T) {
	// Same seed, same pipeline: byte-identical outputs run to run even
	// with evictions (determinism of the commit protocol).
	run := func() map[string]int64 {
		p, _ := buildWordCount(6, 200)
		cl := newTestCluster(t, 4, 2, trace.RateHigh)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := Run(ctx, cl, p.Graph(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, recs := range res.Outputs {
			for _, r := range recs {
				out[r.Key.(string)] = r.Value.(int64)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in key count: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("key %s: %d vs %d", k, v, b[k])
		}
	}
}

func TestCacheHitsOnIterativeJob(t *testing.T) {
	cfg := workloads.MLRConfig{
		Partitions: 8, SamplesPerPart: 20, Features: 32, Classes: 4,
		NonZeros: 8, Iterations: 4, LearningRate: 0.5, Seed: 4,
	}
	cl := newTestCluster(t, 4, 2, trace.RateNone)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, workloads.MLR(cfg).Graph(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CacheHits == 0 {
		t.Error("iterative job produced no cache hits")
	}
}
