// Package pado is the public API of the Pado reproduction: a
// general-purpose distributed data processing engine that harnesses
// transient datacenter resources (Yang et al., EuroSys 2017).
//
// A job is authored against the Beam-style dataflow API, compiled by the
// Pado compiler — which places recomputation-prone operators on reserved
// containers (Algorithm 1) and partitions the DAG into stages
// (Algorithm 2) — and executed by the Pado runtime on a simulated
// datacenter whose transient containers are evicted according to
// trace-derived lifetime distributions.
//
// Quickstart:
//
//	p := pado.NewPipeline()
//	lines := p.Read("read", source, coder)
//	lines.ParDo("parse", fn, outCoder).
//	      CombinePerKey("sum", pado.SumInt64Fn{}, outCoder)
//
//	cl, _ := pado.NewCluster(pado.ClusterConfig{Transient: 8, Reserved: 2})
//	res, _ := pado.Run(context.Background(), cl, p, pado.Config{})
//
// The subsystems are exposed for advanced use: internal/core (compiler),
// internal/runtime (engine), internal/engines/sparklike (the evaluation
// baselines), internal/cluster, internal/simnet, internal/trace, and
// internal/harness (the paper's experiments).
package pado

import (
	"context"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/storage"
	"pado/internal/trace"
)

// Re-exported dataflow types: the job-authoring surface.
type (
	// Pipeline builds a logical DAG of operators.
	Pipeline = dataflow.Pipeline
	// Collection is a distributed dataset handle.
	Collection = dataflow.Collection
	// Record is a key/value element.
	Record = data.Record
	// Coder serializes records for transfer.
	Coder = data.Coder
	// Source is a partitioned external input.
	Source = dataflow.Source
	// DoFn is ParDo's per-record function.
	DoFn = dataflow.DoFn
	// CombineFn is a commutative, associative aggregation.
	CombineFn = dataflow.CombineFn
	// SideInput is a broadcast input to a ParDo.
	SideInput = dataflow.SideInput
	// SumInt64Fn sums int64 values per key.
	SumInt64Fn = dataflow.SumInt64Fn
	// SumFloat64sFn sums float64 vectors elementwise. It rounds every
	// input element to the nearest multiple of 2⁻³⁰ (so an element below
	// 2⁻³¹ in magnitude counts as 0), which makes the sum exact, and so
	// equal bit for bit however it is split and merged, while every
	// partial sum stays below 2²³ in magnitude; past that bound it may
	// round like any float sum.
	SumFloat64sFn = dataflow.SumFloat64sFn
)

// Re-exported cluster and engine configuration.
type (
	// ClusterConfig sizes the simulated datacenter.
	ClusterConfig = cluster.Config
	// Cluster is a simulated datacenter for one job.
	Cluster = cluster.Cluster
	// Config parameterizes the Pado runtime.
	Config = runtime.Config
	// Result carries a finished job's outputs and metrics.
	Result = runtime.Result
	// EvictionRate selects a trace-derived eviction regime.
	EvictionRate = trace.Rate
)

// Re-exported observability types: set Config.Tracer to a NewTracer
// value to record the run's event stream, then export it with
// WriteChromeTrace or WriteTimeline.
type (
	// Tracer records a job's structured event stream.
	Tracer = obs.Tracer
	// TraceEvent is one recorded runtime event.
	TraceEvent = obs.Event
)

// NewTracer returns a tracer whose clock starts now. Pass it in
// Config.Tracer before Run; read the merged stream with Events().
func NewTracer() *Tracer { return obs.New() }

// WriteChromeTrace exports recorded events in Chrome trace_event JSON
// (chrome://tracing, ui.perfetto.dev). A zero Scale keeps wall-clock
// microsecond timestamps.
var WriteChromeTrace = obs.WriteChromeTrace

// WriteTimeline exports recorded events as a plain-text per-stage
// timeline and summary table.
var WriteTimeline = obs.WriteTimeline

// Eviction rates derived from the calibrated datacenter trace analysis
// (§2.1): low = 5% safety margin, medium = 1%, high = 0.1%.
const (
	EvictionNone   = trace.RateNone
	EvictionLow    = trace.RateLow
	EvictionMedium = trace.RateMedium
	EvictionHigh   = trace.RateHigh
)

// CommitStore is a content-addressed store of committed stage outputs.
// Hand the same store to successive runs via Config.Commits and
// unchanged stages and tasks are served from history instead of
// recomputed (incremental re-execution, DESIGN.md §14). Sources opt in
// by implementing FingerprintedSource.
type CommitStore = storage.CommitStore

// NewCommitStore returns an empty commit store.
func NewCommitStore() *CommitStore { return storage.NewCommitStore() }

// FingerprintedSource is a Source whose partitions declare stable
// content fingerprints, which is what keys commit-store caching;
// sources that do not implement it disable caching downstream.
type FingerprintedSource = dataflow.FingerprintedSource

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline { return dataflow.NewPipeline() }

// NewCluster builds a simulated datacenter. Set Lifetimes with
// EvictionLifetimes to enable evictions.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// EvictionLifetimes returns the canonical transient-container lifetime
// distribution for a rate, for use in ClusterConfig.Lifetimes.
func EvictionLifetimes(rate EvictionRate) *trace.LifetimeDist { return trace.Lifetimes(rate) }

// Run compiles the pipeline with the Pado compiler and executes it on the
// cluster, which is consumed (one job per cluster).
func Run(ctx context.Context, cl *Cluster, p *Pipeline, cfg Config) (*Result, error) {
	return runtime.Run(ctx, cl, p.Graph(), cfg)
}

// Compile runs only the Pado compiler — placement, stage partitioning,
// physical planning — and returns the plan for inspection.
func Compile(p *Pipeline, cfg core.PlanConfig) (*core.Plan, error) {
	return core.Compile(p.Graph(), cfg)
}

// KV constructs a Record.
func KV(key, value any) Record { return data.KV(key, value) }
