// Package harness runs the paper's evaluation (§5): engine × workload ×
// eviction-rate experiments on the simulated datacenter, measuring job
// completion times in paper minutes and relaunched-task ratios, and
// printing the tables behind Figures 5-9.
//
// Absolute times are simulator units — the cluster's bandwidths and the
// workload sizes are calibrated so that the transfer/compute/eviction
// ratios land in the same regime as the paper's EC2 testbed — so the
// claims under test are the paper's qualitative results: orderings,
// approximate factors, and crossover points.
package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/engines/sparklike"
	"pado/internal/introspect"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/obs/analyze"
	"pado/internal/runtime"
	"pado/internal/storage"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

// Engine selects the data processing engine under test (§5.1.2).
type Engine int

// Engines of the evaluation.
const (
	EngineSpark Engine = iota
	EngineSparkCheckpoint
	EnginePado
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSpark:
		return "Spark"
	case EngineSparkCheckpoint:
		return "Spark-checkpoint"
	case EnginePado:
		return "Pado"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Workload selects the application (§5.1.3).
type Workload int

// Workloads of the evaluation.
const (
	WorkloadALS Workload = iota
	WorkloadMLR
	WorkloadMR
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case WorkloadALS:
		return "ALS"
	case WorkloadMLR:
		return "MLR"
	case WorkloadMR:
		return "MR"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// The names the command-line tools accept for a cell's coordinates.
var (
	engineNames = map[string]Engine{
		"spark": EngineSpark, "pado": EnginePado,
		"spark-checkpoint": EngineSparkCheckpoint, "checkpoint": EngineSparkCheckpoint, "ck": EngineSparkCheckpoint,
	}
	workloadNames = map[string]Workload{"als": WorkloadALS, "mlr": WorkloadMLR, "mr": WorkloadMR}
	rateNames     = map[string]trace.Rate{
		"none": trace.RateNone, "low": trace.RateLow,
		"medium": trace.RateMedium, "med": trace.RateMedium, "high": trace.RateHigh,
	}
)

func parseName[T any](what, s string, names map[string]T) (T, error) {
	v, ok := names[strings.ToLower(s)]
	if !ok {
		return v, fmt.Errorf("unknown %s %q", what, s)
	}
	return v, nil
}

// ParseWorkload maps a workload's flag spelling to its value.
func ParseWorkload(s string) (Workload, error) { return parseName("workload", s, workloadNames) }

// SetCell parses a cell's coordinates, as the command-line tools spell
// them, into p.
func (p *Params) SetCell(engine, workload, rate string) (err error) {
	if p.Engine, err = parseName("engine", engine, engineNames); err != nil {
		return err
	}
	if p.Workload, err = ParseWorkload(workload); err != nil {
		return err
	}
	p.Rate, err = parseName("rate", rate, rateNames)
	return err
}

// Params configures one experiment run.
type Params struct {
	Engine   Engine
	Workload Workload
	Rate     trace.Rate

	// Cluster shape; the paper's default is 40 transient + 5 reserved.
	Transient int
	Reserved  int

	// Scale maps paper minutes to wall time. Defaults to 60ms/minute.
	Scale vtime.Scale
	// TimeoutMinutes caps the run in paper minutes (default 90,
	// matching the paper's "does not finish for more than 90 minutes").
	TimeoutMinutes float64

	// Size scales the default workload volume (1.0 = calibrated
	// default; tests use smaller).
	Size float64

	Seed int64

	// Repeats averages the experiment over several seeds (the paper
	// reports 5-run averages). Default 1.
	Repeats int

	// Failure sets the heartbeat detector's timing on the Pado engine.
	// The zero value is the defaults; see runtime.FailureConfig for the
	// false-positive trade-offs.
	Failure runtime.FailureConfig

	// CommitStore, when non-nil, turns on incremental re-execution
	// (DESIGN.md §14) on the Pado engine: the run probes the store for
	// prior commits of its stages/tasks before launching anything and
	// writes its own outputs back. Handing the SAME store to a later Run
	// is what makes the rerun incremental; the Spark baselines ignore it.
	CommitStore *storage.CommitStore

	// InputDelta marks that fraction of the MR workload's input
	// partitions dirty (content salted by DeltaSalt), simulating an
	// incremental input update between runs against one CommitStore.
	// Zero (the default) leaves the input identical run to run. MR only:
	// the iterative workloads' inputs aren't partition-versioned.
	InputDelta float64
	// DeltaSalt versions the dirty partitions' content.
	DeltaSalt int64

	// PadoConfig mutates the Pado runtime configuration (ablations).
	PadoConfig func(*runtime.Config)

	// TraceDir, when non-empty, enables event tracing on every run and
	// writes one Chrome trace (.trace.json) and one text timeline
	// (.timeline.txt) per run into the directory, named by engine,
	// workload, rate, and seed. The directory is created if needed.
	TraceDir string

	// Chaos, when non-nil, runs the experiment under a scripted fault
	// schedule (internal/chaos). Tracing is forced on (the engine
	// triggers off the event stream); on the Pado engine the invariant
	// checker runs over the recorded trace and its report lands in
	// Outcome.Chaos.
	Chaos *chaos.Plan

	// ReportDir, when non-empty, forces event tracing on and writes one
	// analyzer report (.report.json, see internal/obs/analyze) per run
	// into the directory, named like TraceDir exports. The directory is
	// created if needed.
	ReportDir string

	// ForceTrace enables event tracing even when no TraceDir/ReportDir/
	// Chaos asks for it, for callers that read Outcome.Events or
	// Outcome.Report themselves. RunJobsSerial sets it so the serial
	// baseline pays the same tracing overhead the (always-traced)
	// multi-job run does; without it the speedup comparison is skewed.
	ForceTrace bool

	// HTTPAddr, when non-empty, serves the live introspection plane
	// (internal/introspect: /metrics, /state, /events, ...) on that
	// address for the duration of the run and forces event tracing on
	// (the /events stream taps the tracer's fan-out). The plane attaches
	// to the manager the cell was started with, so it is Pado only: the
	// Spark baselines have no JobManager to inspect. The bound
	// address is printed to stderr ("HTTP :0" picks a free port).
	HTTPAddr string

	// Jobs, when non-empty, switches the experiment to multi-job mode
	// (RunJobs): every spec runs concurrently on ONE shared cluster
	// under one runtime.JobManager, instead of the one-job-per-cluster
	// single path. Each spec sets its own Workload; Size and the
	// rest above apply to every spec. Engine must be EnginePado.
	Jobs []JobSpec
}

func (p Params) withDefaults() Params {
	if p.Transient == 0 {
		p.Transient = 40
	}
	if p.Reserved == 0 {
		p.Reserved = 5
	}
	if p.Scale.WallPerMinute == 0 {
		p.Scale = vtime.NewScale(60 * time.Millisecond)
	}
	if p.TimeoutMinutes == 0 {
		p.TimeoutMinutes = 90
	}
	if p.Size == 0 {
		p.Size = 1
	}
	if p.Seed == 0 {
		p.Seed = 424242
	}
	return p
}

// Outcome summarizes one run.
type Outcome struct {
	Params     Params
	JCTMinutes float64
	TimedOut   bool
	Metrics    metrics.Snapshot

	// RelaunchRatio is relaunched over original tasks and Evictions the
	// containers lost; with Repeats > 1 both are means over the repeats
	// (Metrics is then the last repeat's).
	RelaunchRatio float64
	Evictions     int64

	// Outputs maps each terminal vertex to the job's result records, and
	// Digest fingerprints them in canonical order together with the
	// invariant verdict, when there is one: equal across runs of one seed,
	// and across engines and fault schedules for one input.
	Outputs map[dag.VertexID][]data.Record
	Digest  string

	// Events is the run's merged event stream and Report the analyzer's
	// report over it (traced runs only; see Params.ForceTrace).
	Events []obs.Event
	Report *analyze.Report

	// Chaos carries the invariant checker's report (Pado engine under a
	// chaos plan, and every job of a multi-job run; nil otherwise).
	Chaos *chaos.Report
	// Injections lists the faults the chaos engine applied.
	Injections []chaos.Injection
	// ReportPath is where Report was written (ReportDir set only; the last
	// repeat's path when averaging).
	ReportPath string
}

// String renders one outcome row.
func (o Outcome) String() string {
	jct := fmt.Sprintf("%.1f", o.JCTMinutes)
	if o.TimedOut {
		jct = fmt.Sprintf(">%.0f", o.JCTMinutes)
	}
	return fmt.Sprintf("%-17s %-4s %-7s %2dT+%dR jct=%6s min relaunched=%5.0f%% evictions=%d",
		o.Params.Engine, o.Params.Workload, o.Params.Rate,
		o.Params.Transient, o.Params.Reserved, jct,
		o.RelaunchRatio*100, o.Evictions)
}

// cellName names p's experiment cell as Outcome.String spells it.
func (p Params) cellName() string {
	return fmt.Sprintf("%s %s %s %dT+%dR", p.Engine, p.Workload, p.Rate, p.Transient, p.Reserved)
}

// Cluster bandwidths in simulator bytes/second, calibrated so the data
// movement costs dominate the way they do on the paper's instances: the
// handful of reserved/storage nodes are the funnel.
const (
	transientBW   = 3 << 20 // 3 MiB/s
	reservedBW    = 3 << 20 // 3 MiB/s
	masterBW      = 6 << 20
	storageDiskBW = 2560 << 10 // GlusterFS-substitute disk throughput
	netLatency    = 500 * time.Microsecond
	// cpuRate is each executor's compute capacity in records/second;
	// it makes the reduce-side compute of record-heavy jobs (MR) a real
	// per-node budget, so few reserved containers means slow reduces
	// (Figure 8(c)).
	cpuRate = 200_000
)

func (p Params) pipeline() *dataflow.Pipeline {
	scale := func(n int) int {
		v := int(float64(n) * p.Size)
		if v < 1 {
			v = 1
		}
		return v
	}
	switch p.Workload {
	case WorkloadALS:
		cfg := workloads.DefaultALSConfig()
		cfg.RatingsPerPart = scale(cfg.RatingsPerPart)
		cfg.Users = scale(cfg.Users)
		cfg.Items = scale(cfg.Items)
		return workloads.ALS(cfg)
	case WorkloadMLR:
		cfg := workloads.DefaultMLRConfig()
		cfg.SamplesPerPart = scale(cfg.SamplesPerPart)
		if p.Engine == EnginePado {
			// The paper runs MLlib programs (treeAggregate) on the
			// Spark baselines and the Figure 3(b) Beam program on
			// Pado, where partial aggregation plays the tree's role.
			cfg.TreeWidth = 0
		}
		return workloads.MLR(cfg)
	default:
		cfg := workloads.DefaultMRConfig()
		cfg.LinesPerPart = scale(cfg.LinesPerPart)
		cfg.DeltaFrac = p.InputDelta
		cfg.DeltaSalt = p.DeltaSalt
		return workloads.MR(cfg)
	}
}

func (p Params) clusterConfig() cluster.Config {
	return cluster.Config{
		Transient:        p.Transient,
		Reserved:         p.Reserved,
		Slots:            4,
		CPURecordsPerSec: cpuRate,
		TransientBW:      transientBW,
		ReservedBW:       reservedBW,
		MasterBW:         masterBW,
		Latency:          netLatency,
		Lifetimes:        trace.Lifetimes(p.Rate),
		Scale:            p.Scale,
		MinLifetime:      p.Scale.Wall(0.5),
		Seed:             p.Seed,
	}
}

// wantsTrace is the one rule for when a cell records events: an export,
// a fault schedule (the chaos engine triggers off the stream), the live
// plane's /events, a caller that reads Outcome.Events, or several jobs
// (per-job invariant checks need the merged stream).
func (p Params) wantsTrace() bool {
	return p.TraceDir != "" || p.ReportDir != "" || p.Chaos != nil || p.ForceTrace ||
		len(p.Jobs) > 0 || (p.HTTPAddr != "" && p.Engine == EnginePado)
}

// cell is one assembled experiment: the calibrated cluster, the optional
// tracer and chaos engine and, on the Pado engine, the job manager with
// the live plane attached. Every run of every engine starts here.
type cell struct {
	cl     *cluster.Cluster
	tracer *obs.Tracer
	chaos  *chaos.Engine

	// Pado only. met is the manager's registry; the single path hands it
	// to its one job too, as runtime.RunPlan does, so that job's snapshot
	// carries the fleet counters.
	jm  *runtime.JobManager
	met *metrics.Job
	srv *introspect.Server

	// events is the run's merged stream, frozen by stop.
	events  []obs.Event
	stopped bool
}

// start assembles p's cell. With p.Jobs set the manager arbitrates the
// cell's reserved-slot budget between the jobs; a lone job is admitted at
// once, as under runtime.Run.
func (p Params) start() (*cell, error) {
	cl, err := cluster.New(p.clusterConfig())
	if err != nil {
		return nil, err
	}
	c := &cell{cl: cl}
	if p.wantsTrace() {
		c.tracer = obs.New()
	}
	if p.Chaos != nil {
		c.chaos = chaos.NewEngine(p.Chaos, cl)
		c.chaos.Attach(c.tracer)
	}
	if p.Engine != EnginePado {
		return c, nil
	}
	c.met = &metrics.Job{}
	mcfg := runtime.ManagerConfig{
		Tracer: c.tracer, Metrics: c.met, Failure: p.Failure, Commits: p.CommitStore,
	}
	if len(p.Jobs) > 0 {
		mcfg.Env = p.clusterConfig().PlacementEnv()
	}
	if c.jm, err = runtime.NewJobManager(cl, mcfg); err != nil {
		c.stop()
		return nil, err
	}
	c.srv, err = introspect.Start(introspect.Options{Addr: p.HTTPAddr, Manager: c.jm, Tracer: c.tracer})
	if err != nil {
		c.stop()
		return nil, err
	}
	if c.srv != nil {
		fmt.Fprintf(os.Stderr, "introspection plane listening on http://%s\n", c.srv.Addr())
	}
	return c, nil
}

// stop ends the run — no further faults, the live plane down, the manager
// and its cluster closed — and freezes the event stream that outcomes are
// built from. Only the first call does anything.
func (c *cell) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	if c.chaos != nil {
		c.chaos.Stop()
	}
	c.srv.Close()
	if c.jm != nil {
		c.jm.Close()
	}
	c.events = c.tracer.Events()
}

// finished is what either engine hands back for one job.
type finished struct {
	outputs map[dag.VertexID][]data.Record
	snap    metrics.Snapshot
	parents map[int][]int // stage id -> parent stage ids
}

// runPado submits q's pipeline to the cell's manager and waits for it. The
// result is nil when the job produced none; the manager's job id is
// returned even then.
func (c *cell) runPado(ctx context.Context, q Params, opts runtime.JobOptions) (*finished, int, error) {
	h, err := c.jm.Submit(q.pipeline().Graph(), q.PadoRuntimeConfig(c.tracer, c.chaos), opts)
	if err != nil {
		return nil, 0, err
	}
	res, err := h.Wait(ctx)
	if res == nil {
		return nil, h.ID(), err
	}
	parents := stageParents(res.Plan.Stages, func(s *core.PhysStage) (int, []int) { return s.ID, s.Parents })
	return &finished{res.Outputs, res.Metrics, parents}, h.ID(), err
}

// runSpark runs p's pipeline on the Spark-like baseline, which owns the
// cell's cluster from here.
func (c *cell) runSpark(ctx context.Context, p Params) (*finished, error) {
	res, err := sparklike.Run(ctx, c.cl, p.pipeline().Graph(), p.SparkConfig(c.tracer))
	if err != nil {
		return nil, err
	}
	parents := stageParents(res.Plan.Stages, func(s *sparklike.SStage) (int, []int) { return s.ID, s.Parents })
	return &finished{res.Outputs, res.Metrics, parents}, nil
}

// stageParents maps each stage id of either engine's plan to its parent
// stage ids.
func stageParents[S any](stages []S, of func(S) (id int, parents []int)) map[int][]int {
	m := make(map[int][]int, len(stages))
	for _, s := range stages {
		id, parents := of(s)
		m[id] = parents
	}
	return m
}

// outcome summarizes one finished job of a stopped cell. job scopes the
// invariant check and the report to one job of a shared stream; 0 is the
// single path, whose stream holds one job. label suffixes the report's
// file name.
func (c *cell) outcome(q Params, f *finished, job int, label string) (Outcome, error) {
	out := Outcome{
		Params: q, JCTMinutes: q.Scale.Minutes(f.snap.JCT), TimedOut: f.snap.TimedOut,
		Metrics: f.snap, RelaunchRatio: f.snap.RelaunchRatio(), Evictions: f.snap.Evictions,
		Outputs: f.outputs,
	}
	if out.TimedOut {
		out.JCTMinutes = q.TimeoutMinutes
	}
	if c.chaos != nil {
		out.Injections = c.chaos.Injections()
	}
	// Jobs sharing a cluster are always checked, a lone job when a fault
	// schedule asks for it; the checker knows the Pado protocol only.
	switch {
	case job > 0:
		out.Chaos = chaos.CheckJob(c.events, job, f.parents)
	case q.Chaos != nil && q.Engine == EnginePado:
		out.Chaos = chaos.Check(c.events, f.parents)
	}
	verdict := out.Chaos
	if verdict == nil {
		verdict = &chaos.Report{} // the digest is then of the output alone
	}
	out.Digest = verdict.Digest(chaos.Canonical(f.outputs))
	if c.tracer == nil {
		return out, nil
	}
	out.Events = c.events
	out.Report = q.analysis(c.events, f.parents, f.snap, job, false)
	if q.ReportDir != "" {
		var err error
		if out.ReportPath, err = q.saveReport(out.Report, exportBase(q)+label); err != nil {
			return Outcome{}, err
		}
	}
	return out, nil
}

// Run executes one experiment, averaging over p.Repeats seeds.
func Run(p Params) (Outcome, error) {
	p = p.withDefaults()
	if p.Repeats <= 1 {
		return runOnce(p)
	}
	var sum Outcome
	var jct, relaunch, evictions float64
	timedOut := 0
	for i := 0; i < p.Repeats; i++ {
		q := p
		q.Seed = p.Seed + int64(i)*7919
		out, err := runOnce(q)
		if err != nil {
			return Outcome{}, err
		}
		jct += out.JCTMinutes
		relaunch += out.RelaunchRatio
		evictions += float64(out.Evictions)
		if out.TimedOut {
			timedOut++
		}
		sum = out
	}
	// Everything but the averages below is the last repeat's.
	n := float64(p.Repeats)
	sum.Params = p
	sum.JCTMinutes = jct / n
	sum.TimedOut = timedOut*2 > p.Repeats // majority timed out
	sum.RelaunchRatio = relaunch / n
	sum.Evictions = int64(evictions / n)
	return sum, nil
}

// Incremental is the outcome of a delta-rerun cell.
type Incremental struct {
	Prime, Rerun Outcome
	// Delta is the fraction of input partitions changed between the two.
	Delta float64
	// Primed is the commit store as the priming run left it.
	Primed storage.CommitStats
}

// RunIncremental runs p's cell twice against one commit store (p's, or a
// fresh one): a priming run on the clean input, then the rerun with delta
// of the MR input partitions changed, which is served from the store
// wherever its input did not change (DESIGN.md §14). Exports, the fault
// schedule and the live plane belong to the rerun; the priming run keeps
// only ForceTrace, for callers that compare the two runs' event counters.
func RunIncremental(p Params, delta float64) (Incremental, error) {
	if p.Engine != EnginePado {
		return Incremental{}, fmt.Errorf("harness: incremental reruns need the Pado engine (the baselines have no commit store)")
	}
	p.Repeats = 1 // repeats reseed the input, which would defeat the store
	if p.CommitStore == nil {
		p.CommitStore = storage.NewCommitStore()
	}
	prime := p
	prime.TraceDir, prime.ReportDir, prime.Chaos, prime.HTTPAddr = "", "", nil, ""
	inc := Incremental{Delta: delta}
	var err error
	if inc.Prime, err = Run(prime); err != nil {
		return Incremental{}, fmt.Errorf("priming run: %w", err)
	}
	inc.Primed = p.CommitStore.Stats()
	p.InputDelta, p.DeltaSalt = delta, 1
	if inc.Rerun, err = Run(p); err != nil {
		return Incremental{}, fmt.Errorf("delta rerun: %w", err)
	}
	return inc, nil
}

// String renders what the priming run stored and what the rerun reused.
func (i Incremental) String() string {
	m := i.Rerun.Metrics.Named
	return fmt.Sprintf("primed commit store: %d manifests, %d chunks, %d bytes\n"+
		"incremental rerun (delta=%.1f%%): %d/%d probes hit, %d stages + %d tasks skipped, "+
		"%d tasks of compute avoided, %dB served from the commit store",
		i.Primed.Manifests, i.Primed.Chunks, i.Primed.UsedBytes, i.Delta*100,
		m[metrics.NameCommitHits], m[metrics.NameCommitProbes],
		m[metrics.NameStagesSkipped], m[metrics.NameTasksSkipped],
		m[metrics.NameComputeAvoidedTasks], m[metrics.NameCASBytesServed])
}

func runOnce(p Params) (Outcome, error) {
	c, err := p.start()
	if err != nil {
		return Outcome{}, err
	}
	defer c.stop()
	ctx, cancel := context.WithTimeout(context.Background(), p.Scale.Wall(p.TimeoutMinutes))
	defer cancel()

	var f *finished
	if p.Engine == EnginePado {
		f, _, err = c.runPado(ctx, p, runtime.JobOptions{Metrics: c.met})
	} else {
		f, err = c.runSpark(ctx, p)
	}
	if err != nil {
		return Outcome{}, err
	}
	c.stop()
	if p.TraceDir != "" {
		if err := writeTraces(p, c.events); err != nil {
			return Outcome{}, err
		}
	}
	return c.outcome(p, f, 0, "")
}

// Plan compiles the cell's pipeline as the Pado engine would run it,
// without running it.
func (p Params) Plan() (*core.Plan, error) {
	p = p.withDefaults()
	p.Engine = EnginePado
	return core.Compile(p.pipeline().Graph(), p.PadoRuntimeConfig(nil, nil).Plan)
}

// SparkConfig assembles the Spark-like baseline's configuration for one
// experiment cell (Engine picks checkpointing): reduce parallelism
// tracking the reserved pool, the stable store's disk bandwidth, and
// Spark's shuffle-fetch retry dance — 5s waits on a ~13-minute job scale
// to ~0.1 paper minutes per retry.
func (p Params) SparkConfig(tracer *obs.Tracer) sparklike.Config {
	cfg := sparklike.Config{Checkpoint: p.Engine == EngineSparkCheckpoint, Tracer: tracer}
	cfg.StorageDiskBW = storageDiskBW
	cfg.FetchRetries = 1
	cfg.FetchRetryWait = p.Scale.Wall(0.1)
	cfg.Plan.ReduceParallelism = 2 * p.Reserved
	return cfg
}

// PadoRuntimeConfig assembles the Pado runtime configuration for one
// experiment cell: reduce parallelism tracking the reserved pool, the
// cell's capacity env, and the paper-time partial-aggregation escape
// delay (§3.2.7, pinned to 0.1 paper minutes at the current scale).
// engine may be nil.
func (p Params) PadoRuntimeConfig(tracer *obs.Tracer, engine *chaos.Engine) runtime.Config {
	cfg := runtime.Config{Tracer: tracer}
	if engine != nil {
		cfg.Chaos = engine
	}
	// Pado concentrates reduce tasks on the reserved containers, so its
	// reduce parallelism tracks the reserved pool.
	cfg.Plan.ReduceParallelism = 2 * p.Reserved
	cfg.Plan.Env = p.clusterConfig().PlacementEnv()
	cfg.AggMaxDelay = p.Scale.Wall(0.1)
	cfg.Failure = p.Failure
	cfg.Commits = p.CommitStore
	if p.PadoConfig != nil {
		p.PadoConfig(&cfg)
	}
	return cfg
}

// analysis renders the analyzer report of one traced run. job > 0 scopes
// a shared stream to one job; fleet marks the whole-stream aggregate of a
// multi-job run, which belongs to no one workload.
func (p Params) analysis(events []obs.Event, parents map[int][]int, snap metrics.Snapshot, job int, fleet bool) *analyze.Report {
	opts := analyze.Options{
		StageParents: parents,
		Scale:        analyze.ScaleInfo{WallPerMinute: p.Scale.WallPerMinute},
		JCT:          snap.JCT,
		TimedOut:     snap.TimedOut,
		Engine:       strings.ToLower(p.Engine.String()),
		Workload:     strings.ToLower(p.Workload.String()),
		Rate:         p.Rate.String(),
		Seed:         p.Seed,
		Job:          job,
		Snapshot:     &snap,
	}
	if fleet {
		opts.Workload = "multi"
	}
	return analyze.Analyze(events, opts)
}

// saveReport writes rep as <ReportDir>/<base>.report.json and returns the
// path.
func (p Params) saveReport(rep *analyze.Report, base string) (string, error) {
	if err := os.MkdirAll(p.ReportDir, 0o755); err != nil {
		return "", fmt.Errorf("harness: report dir: %w", err)
	}
	path := filepath.Join(p.ReportDir, base+".report.json")
	return path, rep.Save(path)
}

// exportBase names one run's export files by its experiment cell.
func exportBase(p Params) string {
	base := strings.ToLower(fmt.Sprintf("%s-%s-%s-seed%d", p.Engine, p.Workload, p.Rate, p.Seed))
	if p.InputDelta > 0 {
		base += fmt.Sprintf("-delta%g", p.InputDelta)
	}
	return base
}

// writeTraces exports one run's event stream as a Chrome trace and a text
// timeline under p.TraceDir.
func writeTraces(p Params, events []obs.Event) error {
	if err := os.MkdirAll(p.TraceDir, 0o755); err != nil {
		return err
	}
	base := exportBase(p)
	chrome, err := os.Create(filepath.Join(p.TraceDir, base+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(chrome, events, p.Scale); err != nil {
		chrome.Close()
		return err
	}
	if err := chrome.Close(); err != nil {
		return err
	}
	timeline, err := os.Create(filepath.Join(p.TraceDir, base+".timeline.txt"))
	if err != nil {
		return err
	}
	if err := obs.WriteTimeline(timeline, events, p.Scale); err != nil {
		timeline.Close()
		return err
	}
	return timeline.Close()
}
