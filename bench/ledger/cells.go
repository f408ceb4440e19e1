package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/engines/sparklike"
	"pado/internal/metrics"
	"pado/internal/obs"
	padort "pado/internal/runtime"
	"pado/internal/storage"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

// calib is the cell calibration, copied from internal/harness (harness.go
// constants, clusterConfig, padoRuntimeConfig and the sparklike block of
// runOnce) at commit 34c1b41. cells_test.go checks it against harness.Run.
// Bandwidths are wall-clock, so scale and bandwidth are one calibration and
// the benchmark never changes either.
type calib struct {
	transient, reserved, slots int
	cpuRate                    int64 // records/s per executor
	transientBW, reservedBW    int64 // bytes/s
	masterBW, storageDiskBW    int64
	latency                    time.Duration
	scale                      vtime.Scale
	minLifetimeMin             float64 // paper minutes
	timeoutMin                 float64
	aggMaxDelayMin             float64
	fetchRetries               int
	fetchRetryWaitMin          float64
}

// paperCell is the paper's 40 transient + 5 reserved cell at -size 1.
var paperCell = calib{
	transient: 40, reserved: 5, slots: 4,
	cpuRate:     200_000,
	transientBW: 3 << 20, reservedBW: 3 << 20,
	masterBW: 6 << 20, storageDiskBW: 2560 << 10,
	latency:        500 * time.Microsecond,
	scale:          vtime.NewScale(60 * time.Millisecond),
	minLifetimeMin: 0.5,
	timeoutMin:     90,
	aggMaxDelayMin: 0.1,
	fetchRetries:   1, fetchRetryWaitMin: 0.1,
}

func (c calib) clusterConfig(rate trace.Rate, seed int64) cluster.Config {
	return cluster.Config{
		Transient:        c.transient,
		Reserved:         c.reserved,
		Slots:            c.slots,
		CPURecordsPerSec: c.cpuRate,
		TransientBW:      c.transientBW,
		ReservedBW:       c.reservedBW,
		MasterBW:         c.masterBW,
		Latency:          c.latency,
		Lifetimes:        trace.Lifetimes(rate),
		Scale:            c.scale,
		MinLifetime:      c.scale.Wall(c.minLifetimeMin),
		Seed:             seed,
	}
}

// How a workload uses the commit store.
const (
	storeNone   = iota
	storeFresh  // a new store every rep: the write side
	storePrimed // setup primes one store, reps rerun against it: the read side
)

// workload is one named cell of the ledger.
type workload struct {
	name    string
	app     string // mr, mlr or als
	sparkCk bool   // Spark-checkpoint engine instead of Pado
	rate    trace.Rate
	fanout  int // MR only: partition multiplier at 1/fanout the lines per partition
	store   int
	warmups int
	// hostBound marks the cells whose jobs keep both cores busy (CPU seconds
	// over wall seconds of a rep: 2.0 on mr_none and the two fan-out cells,
	// 1.3 on mr_prime, under 0.8 on the rest), so that their JCT is CPU time and
	// follows the host's speed; jct_min is normalised by hostReference there.
	hostBound bool
	// unlisted marks a cell on which reps fail now and then at the parent
	// commit (README.md, findings). BENCHMARK.json may only name workloads on
	// which no operation fails, so it names the cell's eviction-free twin
	// instead; the run of every workload and -check still run this one.
	unlisted bool
	why      string
}

// The first reps of a fresh process run 30-60 % slow, so the short MR cells
// warm up three times and the long ones once.
var ledgerWorkloads = []*workload{
	{name: "mr_none", app: "mr", rate: trace.RateNone, warmups: 3, hostBound: true,
		why: "host-CPU-bound data plane (source, parse, codec, push shuffle, receiver merge); recovery, commit plane and cache idle, so their counters read 0"},
	{name: "mr_fanout_medium", app: "mr", rate: trace.RateMedium, fanout: 10, warmups: 3, hostBound: true, unlisted: true,
		why: "800 map tasks over the same bytes as mr_none under evictions: most scheduler events and relaunches per byte, so a control-plane change moves only this and a data-plane change moves both"},
	{name: "mlr_high", app: "mlr", rate: trace.RateHigh, warmups: 1, unlisted: true,
		why: "sleep-bound and eviction-heavy: relaunch ordering, partial aggregation, broadcast fetch and input cache under churn set JCT; host CPU is a fraction of wall"},
	{name: "als_none", app: "als", rate: trace.RateNone, warmups: 1,
		why: "largest DAG with broadcast side inputs and input caching while recovery is idle: separates cache and broadcast cost from eviction cost"},
	{name: "mr_prime", app: "mr", rate: trace.RateNone, store: storeFresh, warmups: 3,
		why: "fresh commit store every rep: write side of the CAS and commit plane, where work a rerun optimisation moves onto the first run shows"},
	{name: "mr_delta", app: "mr", rate: trace.RateNone, store: storePrimed, warmups: 3,
		why: "2 % delta rerun against a primed store: read side of the same layers (probes, skips, CAS pulls), so a gain for one side that costs the other is visible"},
	{name: "sparkck_mr_medium", app: "mr", sparkCk: true, rate: trace.RateMedium, warmups: 1,
		why: "the baseline engine's own master, pull shuffle, stable put/get and lineage recompute: tells whether Figures 5-7 compare the idea or the infrastructure"},
	// New cells go last: a workload's data seed is made of its index.
	{name: "mr_fanout_none", app: "mr", rate: trace.RateNone, fanout: 10, warmups: 3, hostBound: true,
		why: "800 map tasks over the same bytes as mr_none, no evictions: most scheduler events per byte, so a control-plane change moves only this and a data-plane change moves both"},
	{name: "mlr_none", app: "mlr", rate: trace.RateNone, warmups: 1,
		why: "sleep-bound iterative job: broadcast fetch, partial aggregation into a global combine and the input cache set JCT while recovery is idle; host CPU is a fraction of wall"},
}

func workloadByName(name string) *workload {
	for _, w := range ledgerWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const deltaFrac = 0.02

// inputs is a workload's generated input: the logical DAG of each run and
// the reference check of its output.
type inputs struct {
	// graph builds the logical DAG; salt versions the dirty partitions of
	// the delta workload and is ignored by the others.
	graph func(salt int64) *dag.Graph
	// verify compares a run's terminal output with the sequential
	// reference: exact for MR, the integration tests' tolerance for MLR
	// and ALS.
	verify func(salt int64, outs map[dag.VertexID][]data.Record) error
}

// buildInputs derives the workload's data from dataSeed and computes the
// reference output once (per run for the delta workload, whose input
// changes with the salt).
func buildInputs(w *workload, dataSeed int64) inputs {
	switch w.app {
	case "mlr":
		cfg := workloads.DefaultMLRConfig()
		cfg.Seed = dataSeed
		if !w.sparkCk {
			cfg.TreeWidth = 0 // Pado's partial aggregation plays the tree's role
		}
		want := workloads.MLRReference(cfg)
		return inputs{
			graph: func(int64) *dag.Graph { return workloads.MLR(cfg).Graph() },
			verify: func(_ int64, outs map[dag.VertexID][]data.Record) error {
				recs, err := singleOutput(outs)
				if err != nil {
					return err
				}
				if len(recs) != 1 {
					return fmt.Errorf("got %d model records, want 1", len(recs))
				}
				return closeTo("model", recs[0].Value.([]float64), want, 1e-6, 1e-4)
			},
		}
	case "als":
		cfg := workloads.DefaultALSConfig()
		cfg.Seed = dataSeed
		want := workloads.ALSReference(cfg)
		return inputs{
			graph: func(int64) *dag.Graph { return workloads.ALS(cfg).Graph() },
			verify: func(_ int64, outs map[dag.VertexID][]data.Record) error {
				recs, err := singleOutput(outs)
				if err != nil {
					return err
				}
				if len(recs) != len(want) {
					return fmt.Errorf("got %d item factors, want %d", len(recs), len(want))
				}
				for _, r := range recs {
					id := r.Key.(int64)
					if err := closeTo(fmt.Sprintf("item %d", id), r.Value.([]float64), want[id], 1e-5, 1e-3); err != nil {
						return err
					}
				}
				return nil
			},
		}
	default:
		cfg := workloads.DefaultMRConfig()
		cfg.Seed = dataSeed
		if w.fanout > 1 {
			cfg.Partitions, cfg.LinesPerPart = cfg.Partitions*w.fanout, cfg.LinesPerPart/w.fanout
		}
		salted := func(salt int64) workloads.MRConfig {
			c := cfg
			if w.store == storePrimed {
				c.DeltaFrac, c.DeltaSalt = deltaFrac, salt
			}
			return c
		}
		var want map[string]int64
		if w.store != storePrimed {
			want = workloads.MRReference(cfg)
		}
		return inputs{
			graph: func(salt int64) *dag.Graph { return workloads.MR(salted(salt)).Graph() },
			verify: func(salt int64, outs map[dag.VertexID][]data.Record) error {
				want := want
				if want == nil {
					want = workloads.MRReference(salted(salt))
				}
				recs, err := singleOutput(outs)
				if err != nil {
					return err
				}
				if len(recs) != len(want) {
					return fmt.Errorf("got %d docs, want %d", len(recs), len(want))
				}
				for _, r := range recs {
					if got, ref := r.Value.(int64), want[r.Key.(string)]; got != ref {
						return fmt.Errorf("doc %v: got %d want %d", r.Key, got, ref)
					}
				}
				return nil
			},
		}
	}
}

func singleOutput(outs map[dag.VertexID][]data.Record) ([]data.Record, error) {
	if len(outs) != 1 {
		return nil, fmt.Errorf("got %d terminal outputs, want 1", len(outs))
	}
	for _, recs := range outs {
		return recs, nil
	}
	return nil, nil
}

func closeTo(what string, got, want []float64, abs, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: size %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= abs+rel*math.Abs(want[i])) {
			return fmt.Errorf("%s[%d]: got %g want %g", what, i, got[i], want[i])
		}
	}
	return nil
}

// jobResult is what either engine returns from one job.
type jobResult struct {
	outputs      map[dag.VertexID][]data.Record
	snap         metrics.Snapshot
	stageParents map[int][]int
}

// planConfig is the compiler configuration both engines run under: reduce
// parallelism tracks the reserved pool; Pado places by the paper's rule
// against the cell's capacity.
func (c calib) planConfig(w *workload) core.PlanConfig {
	cfg := core.PlanConfig{ReduceParallelism: 2 * c.reserved}
	if !w.sparkCk {
		cfg.Policy = core.PaperRule{}
		cfg.Env = c.clusterConfig(w.rate, 0).PlacementEnv()
	}
	return cfg
}

// runJob runs g once on a fresh cluster under the workload's engine. store
// is nil unless the workload uses the commit plane.
func (c calib) runJob(ctx context.Context, w *workload, cl *cluster.Cluster, g *dag.Graph,
	tracer *obs.Tracer, store *storage.CommitStore) (*jobResult, error) {
	parents := make(map[int][]int)
	if w.sparkCk {
		cfg := sparklike.Config{
			Plan: c.planConfig(w), Tracer: tracer, Checkpoint: true,
			StorageDiskBW:  c.storageDiskBW,
			FetchRetries:   c.fetchRetries,
			FetchRetryWait: c.scale.Wall(c.fetchRetryWaitMin),
		}
		res, err := sparklike.Run(ctx, cl, g, cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range res.Plan.Stages {
			parents[s.ID] = s.Parents
		}
		return &jobResult{res.Outputs, res.Metrics, parents}, nil
	}
	cfg := padort.Config{
		Plan: c.planConfig(w), Tracer: tracer,
		AggMaxDelay: c.scale.Wall(c.aggMaxDelayMin),
		Commits:     store,
		// Task-level commits need content-stable boundary payloads, so the
		// harness runs the incremental path on raw boundaries.
		DisablePartialAggregation: store != nil,
	}
	res, err := padort.Run(ctx, cl, g, cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range res.Plan.Stages {
		parents[s.ID] = s.Parents
	}
	return &jobResult{res.Outputs, res.Metrics, parents}, nil
}
