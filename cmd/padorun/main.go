// Command padorun runs one of the built-in workloads on a chosen engine
// and cluster shape, printing the compiled plan, the job metrics, and a
// sample of the output — a quick way to poke at the system.
//
//	padorun -workload mr -engine pado -rate high -plan
//	padorun -trace out.json -timeline -
//
// -trace writes the run's event stream in Chrome trace_event format
// (load it at chrome://tracing or https://ui.perfetto.dev); -timeline
// writes a plain-text per-stage timeline ("-" for stdout).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/engines/sparklike"
	"pado/internal/harness"
	"pado/internal/introspect"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/obs/analyze"
	"pado/internal/profile"
	"pado/internal/runtime"
	"pado/internal/storage"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

func main() {
	engine := flag.String("engine", "pado", "engine: pado, spark, spark-checkpoint")
	workload := flag.String("workload", "mr", "workload: mr, mlr, als")
	rate := flag.String("rate", "medium", "eviction rate: none, low, medium, high")
	transient := flag.Int("transient", 12, "transient containers")
	reserved := flag.Int("reserved", 3, "reserved containers")
	scaleMS := flag.Int("scale", 50, "wall milliseconds per paper minute")
	seed := flag.Int64("seed", 1, "seed")
	policy := flag.String("policy", "", "placement policy for the pado engine: "+
		strings.Join(core.PolicyNames(), ", ")+" (default: paper)")
	showPlan := flag.Bool("plan", false, "print the compiled plan (placements and stages)")
	dot := flag.Bool("dot", false, "print the placed logical DAG in Graphviz format")
	sample := flag.Int("sample", 5, "output records to print")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (\"-\" for stdout)")
	timelineOut := flag.String("timeline", "", "write a plain-text per-stage timeline to this file (\"-\" for stdout)")
	reportOut := flag.String("report", "", "write the analyzer report JSON (critical path, eviction costs, stage latencies) to this file (\"-\" for stdout); render it with padoreport")
	chaosPlan := flag.String("chaos", "", "run under the scripted fault schedule in this plan JSON file (see examples/chaos/)")
	heartbeat := flag.Duration("heartbeat", 0, "executor heartbeat period for the failure detector (0 = default 100ms)")
	suspectAfter := flag.Duration("suspect-after", 0, "heartbeat staleness that marks a node suspect (0 = 4x heartbeat)")
	deadAfter := flag.Duration("dead-after", 0, "heartbeat staleness that declares a node dead and triggers recovery; raise on loaded hosts to avoid false positives (0 = 15x heartbeat)")
	rpcDeadline := flag.Duration("rpc-deadline", 0, "per-attempt deadline on data-plane RPCs (0 = no deadline; recovery then relies on heartbeats)")
	noDetector := flag.Bool("no-detector", false, "disable heartbeats and the failure detector (announced failures only)")
	noRPCPolicy := flag.Bool("no-rpc-policy", false, "disable the RPC retry/backoff/breaker layer")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	httpAddr := flag.String("http", "",
		"serve the live introspection plane on this address while the run is up "+
			"(pado engine only; e.g. 127.0.0.1:7777, :0 picks a port; monitor with padotop)")
	incremental := flag.Bool("incremental", false,
		"pado engine only: prime a commit store with one identical run, then run (and report) "+
			"the incremental rerun against it — unchanged stages and tasks are served from the store")
	delta := flag.Float64("delta", 0,
		"with -incremental: fraction of the MR input partitions changed between the priming "+
			"run and the rerun (0 = identical input)")
	flag.Parse()

	prof, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatalf("%v", err)
		}
	}()

	var plan *chaos.Plan
	if *chaosPlan != "" {
		var err error
		if plan, err = chaos.Load(*chaosPlan); err != nil {
			fatalf("chaos: %v", err)
		}
	}

	var r trace.Rate
	switch strings.ToLower(*rate) {
	case "none":
		r = trace.RateNone
	case "low":
		r = trace.RateLow
	case "medium":
		r = trace.RateMedium
	case "high":
		r = trace.RateHigh
	default:
		fatalf("unknown rate %q", *rate)
	}

	if *incremental && strings.ToLower(*engine) != "pado" {
		fatalf("-incremental needs -engine pado (the baselines have no commit store)")
	}
	if *delta != 0 && !*incremental {
		fatalf("-delta only makes sense with -incremental")
	}
	if !isWorkload(*workload) {
		fatalf("unknown workload %q", *workload)
	}
	// The reported run carries the input delta (dirty partitions salted);
	// the priming run below always sees the clean input.
	pipe := buildPipe(*workload, *delta, 1)

	scale := vtime.NewScale(time.Duration(*scaleMS) * time.Millisecond)
	clCfg := cluster.Config{
		Transient: *transient,
		Reserved:  *reserved,
		Lifetimes: trace.Lifetimes(r),
		Scale:     scale,
		Seed:      *seed,
	}
	cl, err := cluster.New(clCfg)
	if err != nil {
		fatalf("cluster: %v", err)
	}
	// Both engines run under the configuration the harness builds for this
	// cell shape, so a padorun number means what a padobench number means.
	cell := harness.Params{
		Rate: r, Transient: *transient, Reserved: *reserved, Scale: scale,
		Policy: *policy, Seed: *seed,
		Failure: runtime.FailureConfig{
			DisableDetector:  *noDetector,
			HeartbeatEvery:   *heartbeat,
			SuspectAfter:     *suspectAfter,
			DeadAfter:        *deadAfter,
			DisableRPCPolicy: *noRPCPolicy,
			RPCDeadline:      *rpcDeadline,
		},
	}
	if strings.Contains(*engine, "checkpoint") {
		cell.Engine = harness.EngineSparkCheckpoint
	}
	if *incremental {
		cell.CommitStore = storage.NewCommitStore()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var tracer *obs.Tracer
	if *traceOut != "" || *timelineOut != "" || *reportOut != "" || plan != nil ||
		(*httpAddr != "" && strings.ToLower(*engine) == "pado") {
		tracer = obs.New()
	}

	var chaosEngine *chaos.Engine
	if plan != nil {
		chaosEngine = chaos.NewEngine(plan, cl)
		chaosEngine.Attach(tracer)
		defer chaosEngine.Stop()
	}

	cfg, err := cell.PadoRuntimeConfig(tracer, chaosEngine)
	if err != nil {
		fatalf("%v", err)
	}
	if *showPlan || *dot {
		plan, err := core.Compile(buildPipe(*workload, *delta, 1).Graph(), cfg.Plan)
		if err != nil {
			fatalf("compile: %v", err)
		}
		if *dot {
			fmt.Println(plan.Graph.DOT())
		}
		if *showPlan {
			printPlan(plan)
		}
	}

	var outputs map[dag.VertexID][]data.Record
	var jct time.Duration
	var relaunched, evictions int64
	var report *chaos.Report
	var snap metrics.Snapshot
	var stageParents map[int][]int
	switch strings.ToLower(*engine) {
	case "pado":
		if store := cell.CommitStore; store != nil {
			// Prime: an identical clean-input run on its own cluster fills
			// the store, then the reported run below reruns against it.
			primeCfg := cfg
			primeCfg.Tracer = nil
			primeCfg.Chaos = nil
			primeCl, err := cluster.New(clCfg)
			if err != nil {
				fatalf("cluster: %v", err)
			}
			res, err := runtime.Run(ctx, primeCl, buildPipe(*workload, 0, 0).Graph(), primeCfg)
			if err != nil {
				fatalf("priming run: %v", err)
			}
			st := store.Stats()
			fmt.Fprintf(os.Stderr, "primed commit store: %v wall, %d manifests, %d chunks, %d bytes\n",
				res.Metrics.JCT.Round(time.Millisecond), st.Manifests, st.Chunks, st.UsedBytes)
		}
		if *httpAddr != "" {
			// The manager only exists inside runtime.Run; OnManager hands
			// it to the introspection plane as soon as it starts.
			var srv *introspect.Server
			defer func() { srv.Close() }()
			cfg.OnManager = func(jm *runtime.JobManager) {
				var err error
				srv, err = introspect.Start(introspect.Options{
					Addr: *httpAddr, Manager: jm, Tracer: tracer,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "introspection plane: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "introspection plane listening on http://%s\n", srv.Addr())
			}
		}
		res, err := runtime.Run(ctx, cl, pipe.Graph(), cfg)
		if err != nil {
			fatalf("run: %v", err)
		}
		outputs, jct, snap = res.Outputs, res.Metrics.JCT, res.Metrics
		relaunched, evictions = res.Metrics.RelaunchedTasks, res.Metrics.Evictions
		stageParents = make(map[int][]int, len(res.Plan.Stages))
		for _, ps := range res.Plan.Stages {
			stageParents[ps.ID] = ps.Parents
		}
		if chaosEngine != nil {
			chaosEngine.Stop()
			report = chaos.Check(tracer.Events(), stageParents)
		}
	case "spark", "spark-checkpoint":
		res, err := sparklike.Run(ctx, cl, pipe.Graph(), cell.SparkConfig(tracer))
		if err != nil {
			fatalf("run: %v", err)
		}
		outputs, jct, snap = res.Outputs, res.Metrics.JCT, res.Metrics
		relaunched, evictions = res.Metrics.RelaunchedTasks, res.Metrics.Evictions
		stageParents = make(map[int][]int, len(res.Plan.Stages))
		for _, ps := range res.Plan.Stages {
			stageParents[ps.ID] = ps.Parents
		}
	default:
		fatalf("unknown engine %q", *engine)
	}

	if tracer != nil {
		events := tracer.Events()
		if *traceOut != "" {
			if err := writeExport(*traceOut, func(w *os.File) error {
				return obs.WriteChromeTrace(w, events, scale)
			}); err != nil {
				fatalf("trace: %v", err)
			}
		}
		if *timelineOut != "" {
			if err := writeExport(*timelineOut, func(w *os.File) error {
				return obs.WriteTimeline(w, events, scale)
			}); err != nil {
				fatalf("timeline: %v", err)
			}
		}
		if *reportOut != "" {
			opts := analyze.Options{
				StageParents: stageParents,
				Scale:        analyze.ScaleInfo{WallPerMinute: scale.WallPerMinute},
				JCT:          jct,
				TimedOut:     snap.TimedOut,
				Engine:       strings.ToLower(*engine),
				Workload:     strings.ToLower(*workload),
				Rate:         r.String(),
				Seed:         *seed,
				Snapshot:     &snap,
			}
			if strings.ToLower(*engine) == "pado" {
				opts.Policy = cfg.Plan.Policy.Name()
			}
			rep := analyze.Analyze(events, opts)
			if err := writeExport(*reportOut, func(w *os.File) error {
				return rep.WriteJSON(w)
			}); err != nil {
				fatalf("report: %v", err)
			}
		}
	}

	fmt.Printf("engine=%s workload=%s rate=%s: jct=%.1f paper-min (%v wall), evictions=%d, relaunched=%d\n",
		*engine, *workload, r, scale.Minutes(jct), jct.Round(time.Millisecond), evictions, relaunched)
	if *incremental {
		fmt.Printf("incremental rerun (delta=%.0f%%): %d/%d probes hit, %d stages + %d tasks skipped, "+
			"%d tasks of compute avoided, %dB served from the commit store\n",
			*delta*100,
			snap.Named[metrics.NameCommitHits], snap.Named[metrics.NameCommitProbes],
			snap.Named[metrics.NameStagesSkipped], snap.Named[metrics.NameTasksSkipped],
			snap.Named[metrics.NameComputeAvoidedTasks], snap.Named[metrics.NameCASBytesServed])
	}
	if chaosEngine != nil {
		chaosEngine.Stop()
		for _, inj := range chaosEngine.Injections() {
			fmt.Printf("chaos injected: %s\n", inj)
		}
		if report != nil {
			fmt.Println(report)
			fmt.Printf("chaos digest: %s\n", report.Digest(chaos.Canonical(outputs)))
		}
	}
	for vid, recs := range outputs {
		fmt.Printf("output vertex %d: %d records\n", vid, len(recs))
		show := recs
		sort.Slice(show, func(i, j int) bool {
			return fmt.Sprint(show[i].Key) < fmt.Sprint(show[j].Key)
		})
		for i := 0; i < *sample && i < len(show); i++ {
			fmt.Printf("  %v\n", summarize(show[i]))
		}
	}
}

func isWorkload(name string) bool {
	switch strings.ToLower(name) {
	case "mr", "mlr", "als":
		return true
	}
	return false
}

// buildPipe builds a fresh pipeline for the workload (plans mutate vertex
// state, so every compile or run gets its own graph). deltaFrac/salt dirty
// that fraction of the MR input between incremental runs; the iterative
// workloads' inputs aren't partition-versioned and ignore them.
func buildPipe(workload string, deltaFrac float64, salt int64) *dataflow.Pipeline {
	switch strings.ToLower(workload) {
	case "mlr":
		cfg := workloads.DefaultMLRConfig()
		cfg.Partitions, cfg.SamplesPerPart = 16, 40
		return workloads.MLR(cfg)
	case "als":
		cfg := workloads.DefaultALSConfig()
		cfg.Partitions, cfg.RatingsPerPart = 16, 600
		return workloads.ALS(cfg)
	default:
		cfg := workloads.DefaultMRConfig()
		cfg.Partitions, cfg.LinesPerPart = 16, 2000
		cfg.DeltaFrac = deltaFrac
		cfg.DeltaSalt = salt
		return workloads.MR(cfg)
	}
}

func summarize(r data.Record) string {
	if v, ok := r.Value.([]float64); ok && len(v) > 4 {
		return fmt.Sprintf("(%v, [%.3f %.3f ... %d values])", r.Key, v[0], v[1], len(v))
	}
	return r.String()
}

func printPlan(plan *core.Plan) {
	g := plan.Graph
	fmt.Printf("operator placement (policy %s):\n", plan.Policy)
	order, _ := g.TopoSort()
	for _, id := range order {
		v := g.Vertex(id)
		fmt.Printf("  %-28s %-10s parallelism=%d\n", v.Name, v.Placement, v.Parallelism)
	}
	fmt.Println("stages (Algorithm 2):")
	for _, ps := range plan.Stages {
		kind := "reserved-root"
		if !ps.RootReserved {
			kind = "terminal-transient"
		}
		fmt.Printf("  stage %d: root=%s (%s, %d tasks), %d fragment(s), %d cross-stage input(s)\n",
			ps.ID, g.Vertex(ps.Root).Name, kind, ps.RootParallelism, len(ps.Fragments), len(ps.Inputs))
	}
}

func writeExport(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
