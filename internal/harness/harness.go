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

	// Tasks multiplies each workload's partition count while dividing
	// the per-partition record volume by the same factor, holding total
	// data roughly constant. It is a control-plane fan-out knob: a 10x
	// cell runs ~10x the scheduling events over the same bytes, so it
	// isolates master-loop cost from data-plane cost. Default 1.
	Tasks int

	// Policy names the placement policy for the Pado engine (see
	// core.PolicyNames). Empty means the default paper rule. The Spark
	// baselines have no placement layer and ignore it.
	Policy string

	Seed int64

	// Repeats averages the experiment over several seeds (the paper
	// reports 5-run averages). Default 1.
	Repeats int

	// Failure tunes the failure-handling plane (heartbeat detector and
	// RPC retry/backoff policy) on the Pado engine. The zero value means
	// defaults-on; see runtime.FailureConfig for the knobs and their
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
	// Chaos asks for it. RunJobsSerial sets it so the serial baseline
	// pays the same tracing overhead the (always-traced) multi-job run
	// does; without it the speedup comparison is skewed.
	ForceTrace bool

	// HTTPAddr, when non-empty, serves the live introspection plane
	// (internal/introspect: /metrics, /state, /events, ...) on that
	// address for the duration of the run and forces event tracing on
	// (the /events stream taps the tracer's fan-out). Pado engine only:
	// the Spark baselines have no JobManager to inspect. The bound
	// address is printed to stderr ("HTTP :0" picks a free port).
	HTTPAddr string

	// Jobs, when non-empty, switches the experiment to multi-job mode
	// (RunJobs): every spec runs concurrently on ONE shared cluster
	// under one runtime.JobManager, instead of the one-job-per-cluster
	// single path. Workload/Size/Policy above become defaults each spec
	// may override; Engine must be EnginePado.
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
	if p.Tasks == 0 {
		p.Tasks = 1
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

	// Chaos carries the invariant checker's report (Pado engine under a
	// chaos plan only; nil otherwise).
	Chaos *chaos.Report
	// Injections lists the faults the chaos engine applied.
	Injections []chaos.Injection
	// ReportPath is the analyzer report written for this run (ReportDir
	// set only; the last repeat's path when averaging).
	ReportPath string
}

// String renders one outcome row.
func (o Outcome) String() string {
	jct := fmt.Sprintf("%.1f", o.JCTMinutes)
	if o.TimedOut {
		jct = fmt.Sprintf(">%.0f", o.JCTMinutes)
	}
	return fmt.Sprintf("%-17s %-4s %-7s %-13s %2dT+%dR jct=%6s min relaunched=%5.0f%% evictions=%d",
		o.Params.Engine, o.Params.Workload, o.Params.Rate, o.Params.policyLabel(),
		o.Params.Transient, o.Params.Reserved, jct,
		o.Metrics.RelaunchRatio()*100, o.Metrics.Evictions)
}

// policyLabel is the placement policy for display: the Pado engine's
// configured policy (defaulting to the paper rule), "-" for engines
// without a placement layer.
func (p Params) policyLabel() string {
	if p.Engine != EnginePado {
		return "-"
	}
	if p.Policy == "" {
		return core.PaperRule{}.Name()
	}
	return p.Policy
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
	// fan applies the Tasks multiplier: more partitions, each thinner,
	// same total volume (the per-partition floor of 1 record keeps tiny
	// Size cells valid).
	fan := func(parts, per int) (int, int) {
		if p.Tasks <= 1 {
			return parts, per
		}
		per /= p.Tasks
		if per < 1 {
			per = 1
		}
		return parts * p.Tasks, per
	}
	switch p.Workload {
	case WorkloadALS:
		cfg := workloads.DefaultALSConfig()
		cfg.RatingsPerPart = scale(cfg.RatingsPerPart)
		cfg.Users = scale(cfg.Users)
		cfg.Items = scale(cfg.Items)
		cfg.Partitions, cfg.RatingsPerPart = fan(cfg.Partitions, cfg.RatingsPerPart)
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
		cfg.Partitions, cfg.SamplesPerPart = fan(cfg.Partitions, cfg.SamplesPerPart)
		return workloads.MLR(cfg)
	default:
		cfg := workloads.DefaultMRConfig()
		cfg.LinesPerPart = scale(cfg.LinesPerPart)
		cfg.Partitions, cfg.LinesPerPart = fan(cfg.Partitions, cfg.LinesPerPart)
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

func (p Params) newCluster() (*cluster.Cluster, error) {
	return cluster.New(p.clusterConfig())
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
		relaunch += out.Metrics.RelaunchRatio()
		evictions += float64(out.Metrics.Evictions)
		if out.TimedOut {
			timedOut++
		}
		sum = out
	}
	n := float64(p.Repeats)
	sum.Params = p
	sum.JCTMinutes = jct / n
	sum.TimedOut = timedOut*2 > p.Repeats // majority timed out
	sum.Metrics.Evictions = int64(evictions / n)
	sum.Metrics.OriginalTasks = 1000
	sum.Metrics.RelaunchedTasks = int64(relaunch / n * 1000)
	return sum, nil
}

func runOnce(p Params) (Outcome, error) {
	pipe := p.pipeline()
	cl, err := p.newCluster()
	if err != nil {
		return Outcome{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.Scale.Wall(p.TimeoutMinutes))
	defer cancel()

	var tracer *obs.Tracer
	if p.TraceDir != "" || p.ReportDir != "" || p.Chaos != nil || p.ForceTrace ||
		(p.HTTPAddr != "" && p.Engine == EnginePado) {
		tracer = obs.New()
	}

	var engine *chaos.Engine
	if p.Chaos != nil {
		engine = chaos.NewEngine(p.Chaos, cl)
		engine.Attach(tracer)
		defer engine.Stop()
	}

	var snap metrics.Snapshot
	var report *chaos.Report
	var injections []chaos.Injection
	var stageParents map[int][]int
	switch p.Engine {
	case EnginePado:
		cfg, err := p.PadoRuntimeConfig(tracer, engine)
		if err != nil {
			return Outcome{}, err
		}
		if p.HTTPAddr != "" {
			// The single-job manager only exists inside runtime.Run;
			// OnManager hands it to the introspection plane as soon as it
			// starts, and the server comes down with the run.
			var srv *introspect.Server
			defer func() { srv.Close() }()
			prev := cfg.OnManager
			cfg.OnManager = func(jm *runtime.JobManager) {
				if prev != nil {
					prev(jm)
				}
				var err error
				srv, err = introspect.Start(introspect.Options{
					Addr: p.HTTPAddr, Manager: jm, Tracer: tracer,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "harness: introspection plane: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "introspection plane listening on http://%s\n", srv.Addr())
			}
		}
		res, err := runtime.Run(ctx, cl, pipe.Graph(), cfg)
		if err != nil {
			return Outcome{}, err
		}
		snap = res.Metrics
		stageParents = make(map[int][]int, len(res.Plan.Stages))
		for _, ps := range res.Plan.Stages {
			stageParents[ps.ID] = ps.Parents
		}
		if engine != nil {
			engine.Stop()
			injections = engine.Injections()
			report = chaos.Check(tracer.Events(), stageParents)
		}
	default:
		res, err := sparklike.Run(ctx, cl, pipe.Graph(), p.SparkConfig(tracer))
		if err != nil {
			return Outcome{}, err
		}
		snap = res.Metrics
		stageParents = make(map[int][]int, len(res.Plan.Stages))
		for _, ps := range res.Plan.Stages {
			stageParents[ps.ID] = ps.Parents
		}
		if engine != nil {
			engine.Stop()
			injections = engine.Injections()
		}
	}

	if p.TraceDir != "" {
		if err := writeTraces(p, tracer); err != nil {
			return Outcome{}, err
		}
	}

	var reportPath string
	if p.ReportDir != "" {
		var err error
		if reportPath, err = writeReport(p, tracer, stageParents, snap); err != nil {
			return Outcome{}, err
		}
	}

	jct := p.Scale.Minutes(snap.JCT)
	if snap.TimedOut {
		jct = p.TimeoutMinutes
	}
	return Outcome{Params: p, JCTMinutes: jct, TimedOut: snap.TimedOut, Metrics: snap,
		Chaos: report, Injections: injections, ReportPath: reportPath}, nil
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
// named placement policy against the cell's capacity env, and the
// paper-time partial-aggregation escape delay (§3.2.7, pinned to 0.1
// paper minutes at the current scale). engine may be nil. Both this and
// SparkConfig are exported so cmd/padorun runs what the harness runs.
func (p Params) PadoRuntimeConfig(tracer *obs.Tracer, engine *chaos.Engine) (runtime.Config, error) {
	cfg := runtime.Config{Tracer: tracer}
	if engine != nil {
		cfg.Chaos = engine
	}
	// Pado concentrates reduce tasks on the reserved containers, so its
	// reduce parallelism tracks the reserved pool.
	cfg.Plan.ReduceParallelism = 2 * p.Reserved
	pol, err := core.PolicyByName(p.Policy)
	if err != nil {
		return runtime.Config{}, err
	}
	cfg.Plan.Policy = pol
	cfg.Plan.Env = p.clusterConfig().PlacementEnv()
	cfg.AggMaxDelay = p.Scale.Wall(0.1)
	cfg.Failure = p.Failure
	cfg.Commits = p.CommitStore
	if p.PadoConfig != nil {
		p.PadoConfig(&cfg)
	}
	return cfg, nil
}

// writeReport analyzes one run's event stream and writes the report
// JSON under p.ReportDir, returning the written path.
func writeReport(p Params, tracer *obs.Tracer, stageParents map[int][]int, snap metrics.Snapshot) (string, error) {
	if err := os.MkdirAll(p.ReportDir, 0o755); err != nil {
		return "", err
	}
	opts := analyze.Options{
		StageParents: stageParents,
		Scale:        analyze.ScaleInfo{WallPerMinute: p.Scale.WallPerMinute},
		JCT:          snap.JCT,
		TimedOut:     snap.TimedOut,
		Engine:       strings.ToLower(p.Engine.String()),
		Workload:     strings.ToLower(p.Workload.String()),
		Rate:         p.Rate.String(),
		Seed:         p.Seed,
		Snapshot:     &snap,
	}
	if p.Engine == EnginePado {
		opts.Policy = p.policyLabel()
	}
	rep := analyze.Analyze(tracer.Events(), opts)
	path := filepath.Join(p.ReportDir, exportBase(p)+".report.json")
	return path, rep.Save(path)
}

// exportBase names one run's export files by its experiment cell. A
// non-default placement policy joins the name so policy sweeps over the
// same cell do not collide; the default policy keeps the historical
// four-part name (committed baselines and CI artifacts depend on it).
func exportBase(p Params) string {
	base := strings.ToLower(fmt.Sprintf("%s-%s-%s-seed%d", p.Engine, p.Workload, p.Rate, p.Seed))
	if p.Engine == EnginePado && p.Policy != "" && p.Policy != (core.PaperRule{}).Name() {
		base += "-" + p.Policy
	}
	if p.Tasks > 1 {
		base += fmt.Sprintf("-tasks%d", p.Tasks)
	}
	if p.InputDelta > 0 {
		base += fmt.Sprintf("-delta%g", p.InputDelta)
	}
	return base
}

// writeTraces exports one run's event stream as a Chrome trace and a text
// timeline under p.TraceDir.
func writeTraces(p Params, tracer *obs.Tracer) error {
	if err := os.MkdirAll(p.TraceDir, 0o755); err != nil {
		return err
	}
	events := tracer.Events()
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
