package sparklike

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/simnet"
	"pado/internal/storage/blocktest"
	"pado/internal/trace"
	"pado/internal/vtime"
)

func buildWordCount(parts, recsPerPart int) (*dataflow.Pipeline, map[string]int64) {
	src := &dataflow.FuncSource{
		Partitions: parts,
		Gen: func(p int) []data.Record {
			rng := rand.New(rand.NewSource(int64(p) + 1))
			recs := make([]data.Record, recsPerPart)
			for i := range recs {
				recs[i] = data.KV(fmt.Sprintf("w%03d", rng.Intn(100)), int64(rng.Intn(10)))
			}
			return recs
		},
	}
	expect := make(map[string]int64)
	for p := 0; p < parts; p++ {
		for _, r := range src.Gen(p) {
			expect[r.Key.(string)] += r.Value.(int64)
		}
	}
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	c := p.Read("read", src, kv)
	c.ParDo("map", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv).
		CombinePerKey("sum", dataflow.SumInt64Fn{}, kv)
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
		Seed:        7,
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

func TestWordCountPlain(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	cl := newTestCluster(t, 4, 2, trace.RateNone)
	res, err := Run(context.Background(), cl, p.Graph(), Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkWordCount(t, res, expect)
}

func TestWordCountPlainEvictions(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	cl := newTestCluster(t, 4, 2, trace.RateLow)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, p.Graph(), Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	checkWordCount(t, res, expect)
}

func TestWordCountCheckpoint(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	cl := newTestCluster(t, 4, 2, trace.RateNone)
	res, err := Run(context.Background(), cl, p.Graph(), Config{Checkpoint: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkWordCount(t, res, expect)
	if res.Metrics.BytesCheckpointed == 0 {
		t.Error("expected checkpoint traffic")
	}
}

func TestWordCountCheckpointEvictions(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	cl := newTestCluster(t, 4, 2, trace.RateHigh)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, p.Graph(), Config{Checkpoint: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	checkWordCount(t, res, expect)
}

// TestShuffleFetchesArePooled: every shuffle, broadcast and collect fetch
// (and, in checkpoint mode, every stable put/get) rides the executors'
// and the driver's pools, so a run reuses streams and dials far fewer
// times than it moves blocks.
func TestShuffleFetchesArePooled(t *testing.T) {
	for _, ck := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ck), func(t *testing.T) {
			// Many map partitions on few executors: each (reader, owner)
			// pair moves dozens of blocks over a handful of streams.
			p, expect := buildWordCount(128, 25)
			cl := newTestCluster(t, 2, 1, trace.RateNone)
			res, err := Run(context.Background(), cl, p.Graph(), Config{Checkpoint: ck})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkWordCount(t, res, expect)
			// Each reduce task pulls one bucket per map task.
			var blocks int64
			for _, s := range res.Plan.Stages {
				for _, in := range s.Inputs {
					if in.Dep == dag.ManyToMany {
						blocks += int64(s.Parallelism * res.Plan.Stages[in.FromStage].Parallelism)
					}
				}
			}
			dials := res.Metrics.Named[metrics.NameConnDials]
			reuses := res.Metrics.Named[metrics.NameConnReuses]
			t.Logf("blocks=%d dials=%d reuses=%d", blocks, dials, reuses)
			if blocks < 1024 {
				t.Fatalf("plan shuffles only %d blocks; the test needs a real shuffle", blocks)
			}
			if reuses == 0 {
				t.Error("conn_reuses = 0: fetches are dialing per block")
			}
			if dials*4 > blocks {
				t.Errorf("conn_dials = %d for %d shuffle blocks (reuses %d): want far fewer dials than blocks", dials, blocks, reuses)
			}
		})
	}
}

// TestExecutorServesBlockProtocol runs the shared conformance table
// against a Spark-like executor's store server.
func TestExecutorServesBlockProtocol(t *testing.T) {
	net := simnet.New(simnet.Config{})
	node, err := net.AddNode("t1")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := newExecutor("t1", node, net, nil, Config{}, &metrics.Job{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.shutdown()
	blocktest.Drive(t, net, "t1")
	if got, ok := ex.store.Get("k"); !ok || string(got) != "v2" {
		t.Errorf("executor store holds %q, %v after the table", got, ok)
	}
}

// TestDemanded pins lazy lineage demand: an incomplete terminal stage
// demands its parents, an incomplete demanded stage demands its own, and a
// complete stage stops the walk however incomplete the stages above it are.
func TestDemanded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parents  [][]int // per stage id; ids are topological
		complete []bool
		want     []bool
	}{
		{"chain, all incomplete", [][]int{nil, {0}, {1}, {2}},
			[]bool{false, false, false, false}, []bool{true, true, true, true}},
		{"chain, complete middle", [][]int{nil, {0}, {1}, {2}},
			[]bool{false, true, false, false}, []bool{false, true, true, true}},
		{"chain, complete terminal", [][]int{nil, {0}, {1}},
			[]bool{false, false, true}, []bool{false, false, false}},
		{"diamond, one branch complete", [][]int{nil, {0}, {0}, {1, 2}},
			[]bool{false, true, false, false}, []bool{true, true, true, true}},
		{"diamond, both branches complete", [][]int{nil, {0}, {0}, {1, 2}},
			[]bool{false, true, true, false}, []bool{false, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &master{}
			for id, parents := range tc.parents {
				ps := &SStage{ID: id, Parents: parents}
				for _, p := range parents {
					m.stages[p].ps.Children = append(m.stages[p].ps.Children, id)
				}
				st := tWaiting
				if tc.complete[id] {
					st = tDone
				}
				m.stages = append(m.stages, &sStageRun{ps: ps, tasks: []*sTask{{state: tDone}, {state: st}}})
			}
			if got := m.demanded(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("demanded = %v, want %v", got, tc.want)
			}
		})
	}
}
