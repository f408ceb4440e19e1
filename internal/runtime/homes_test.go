package runtime

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dataflow"
	"pado/internal/trace"
	"pado/internal/workloads"
)

// homeStages compiles p as the harness does (reduce parallelism 2R) for a
// fleet of transient+reserved containers and reports which stages shard
// their fan-in and which replicate their output, placing each stage's
// receivers round-robin as startStage does.
func homeStages(t *testing.T, p *dataflow.Pipeline, cfg Config, transient, reserved int) (sharded, replicated []int) {
	t.Helper()
	plan, err := core.Compile(p.Graph(), core.PlanConfig{ReduceParallelism: 2 * reserved})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Transient: 1, Reserved: 1})
	if err != nil {
		t.Fatal(err)
	}
	jm := newManager(cl, ManagerConfig{})
	h, err := jm.SubmitPlan(plan, cfg, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jm.handle(<-jm.events) // evSubmit, with the fleet still empty
	for i := 0; i < reserved; i++ {
		jm.registerNode(fmt.Sprintf("r%d", i), cluster.Reserved, 4)
	}
	for i := 0; i < transient; i++ {
		jm.registerNode(fmt.Sprintf("t%d", i), cluster.Transient, 4)
	}
	rr := 0
	for _, s := range h.j.stages {
		if !s.ps.RootReserved {
			continue
		}
		s.recvExecs = make([]string, s.ps.RootParallelism)
		for i := range s.recvExecs {
			s.recvExecs[i] = jm.reservedOrder[rr%reserved]
			rr++
		}
		if jm.shardsCombine(h.j, s.ps) {
			sharded = append(sharded, s.ps.ID)
		}
		if jm.broadcastReplicas(h.j, s) != nil {
			replicated = append(replicated, s.ps.ID)
		}
	}
	return sharded, replicated
}

// TestHomesEngageOnlyWhereTheyUnloadANIC pins the decision of both halves
// from the plan and the cell: on the default cell (40T+5R) MLR shards each
// gradient fan-in and replicates each model, while MR's 10-way reduce and
// ALS's factors, spread evenly over the reserved containers already, keep
// today's placement; so does MLR wherever homes would not lower the
// most-loaded reserved NIC's bytes.
func TestHomesEngageOnlyWhereTheyUnloadANIC(t *testing.T) {
	mlr := func() *dataflow.Pipeline {
		cfg := workloads.DefaultMLRConfig()
		cfg.TreeWidth = 0
		return workloads.MLR(cfg)
	}
	for _, c := range []struct {
		name                string
		p                   *dataflow.Pipeline
		cfg                 Config
		transient, reserved int
		sharded, replicated []int
	}{
		{"mlr-default", mlr(), Config{}, 40, 5, []int{1, 3, 5, 7, 9}, []int{0, 2, 4, 6, 8}},
		{"mlr-unbuffered", mlr(), Config{DisablePartialAggregation: true}, 40, 5, nil, []int{0, 2, 4, 6, 8}},
		{"mlr-one-reserved", mlr(), Config{}, 40, 1, nil, nil},
		{"mlr-few-executors", mlr(), Config{}, 4, 5, nil, nil},
		{"mr-default", workloads.MR(workloads.DefaultMRConfig()), Config{}, 40, 5, nil, nil},
		{"als-default", workloads.ALS(workloads.DefaultALSConfig()), Config{}, 40, 5, nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			sharded, replicated := homeStages(t, c.p, c.cfg, c.transient, c.reserved)
			if !slices.Equal(sharded, c.sharded) || !slices.Equal(replicated, c.replicated) {
				t.Errorf("sharded fan-in %v, replicated output %v; want %v and %v",
					sharded, replicated, c.sharded, c.replicated)
			}
		})
	}
}

// TestShardedFanInIsBitIdentical runs one MLR job on one reserved
// container, where nothing is sharded or replicated, and on two and three,
// where every gradient fan-in is sharded and every model replicated: the
// exact gradient sum makes the two-level fold give the flat fold's bits.
func TestShardedFanInIsBitIdentical(t *testing.T) {
	cfg := workloads.MLRConfig{
		Partitions: 16, SamplesPerPart: 20, Features: 32, Classes: 4,
		NonZeros: 8, Iterations: 3, LearningRate: 0.5, Seed: 11,
	}
	want := workloads.MLRReference(cfg)
	var first []float64
	for _, reserved := range []int{1, 2, 3} {
		if sharded, replicated := homeStages(t, workloads.MLR(cfg), Config{}, 8, reserved); (reserved > 1) != (len(sharded) == cfg.Iterations && len(replicated) == cfg.Iterations) {
			t.Fatalf("%d reserved: sharded %v, replicated %v", reserved, sharded, replicated)
		}
		cl := newTestCluster(t, 8, reserved, trace.RateNone)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := Run(ctx, cl, workloads.MLR(cfg).Graph(), Config{})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.TimedOut {
			t.Fatalf("%d reserved: timed out", reserved)
		}
		var model []float64
		for _, recs := range res.Outputs {
			model = recs[0].Value.([]float64)
		}
		for i := range model {
			if math.Abs(model[i]-want[i]) > 1e-9 {
				t.Fatalf("%d reserved: model[%d] = %g, want %g", reserved, i, model[i], want[i])
			}
		}
		if first == nil {
			first = model
			continue
		}
		for i := range model {
			if math.Float64bits(model[i]) != math.Float64bits(first[i]) {
				t.Fatalf("%d reserved: model[%d] = %x, one reserved container gave %x",
					reserved, i, math.Float64bits(model[i]), math.Float64bits(first[i]))
			}
		}
	}
}
