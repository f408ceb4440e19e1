// Command padobench regenerates the paper's evaluation figures (5-9) on
// the simulated datacenter, or runs a single experiment.
//
//	padobench -figure 5           # ALS eviction-rate sweep
//	padobench -figure all         # everything
//	padobench -single -engine pado -workload mlr -rate high
//	padobench -jobs 3 -mix mr,mr,mlr -rate medium
//
// -single exits non-zero when the run times out or aborts. -jobs runs N
// concurrent jobs on one shared cluster under the multi-job manager and
// exits non-zero unless every job completes with its invariants intact
// (and, with -require-speedup, unless sharing beats the serial baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pado/internal/harness"
	"pado/internal/metrics"
	"pado/internal/profile"
	"pado/internal/runtime"
	"pado/internal/vtime"
)

func main() {
	figure := flag.String("figure", "", "figure to regenerate: 5, 6, 7, 8, 9, or all")
	single := flag.Bool("single", false, "run a single experiment")
	engine := flag.String("engine", "pado", "single: engine (spark, spark-checkpoint, pado)")
	workload := flag.String("workload", "mr", "single: workload (als, mlr, mr)")
	rate := flag.String("rate", "none", "single: eviction rate (none, low, medium, high)")
	transient := flag.Int("transient", 40, "transient containers")
	reserved := flag.Int("reserved", 5, "reserved containers")
	size := flag.Float64("size", 1.0, "workload size factor")
	tasks := flag.Int("tasks", 1,
		"task fan-out multiplier: N times the partitions, each 1/N the records, "+
			"holding data volume constant (control-plane scale cells)")
	scaleMS := flag.Int("scale", 60, "wall milliseconds per paper minute")
	timeout := flag.Float64("timeout", 90, "timeout in paper minutes")
	seed := flag.Int64("seed", 424242, "experiment seed")
	repeats := flag.Int("repeats", 1, "average each cell over this many seeds")
	traceDir := flag.String("tracedir", "", "write per-run Chrome traces and timelines into this directory")
	reportDir := flag.String("reportdir", "", "write one analyzer report JSON per experiment cell into this directory (render/diff with padoreport)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	jobs := flag.Int("jobs", 0, "run N concurrent jobs on one shared cluster (multi-job manager)")
	mix := flag.String("mix", "mr,mr,mlr",
		"multi-job: comma-separated workload[:weight] cycle assigned round-robin (e.g. mlr:8,mr,mr)")
	stagger := flag.Float64("stagger", 0, "multi-job: paper minutes between successive submissions")
	requireSpeedup := flag.Float64("require-speedup", 0,
		"multi-job: also run the serial one-job-per-cluster baseline and fail unless makespan speedup >= this")
	noAgg := flag.Bool("pado-noagg", false, "disable Pado partial aggregation")
	noCache := flag.Bool("pado-nocache", false, "disable Pado task input caching")
	pull := flag.Bool("pado-pull", false, "Pado ablation: pull-based stage boundaries")
	aggMax := flag.Int("pado-aggmax", 0, "Pado executor-level aggregation task limit (0 = default)")
	padoReduce := flag.Int("pado-reduce", 0, "override Pado reduce parallelism")
	httpAddr := flag.String("http", "",
		"serve the live introspection plane on this address while the run is up "+
			"(pado engine only; e.g. 127.0.0.1:7777, :0 picks a port; monitor with padotop)")
	incr := flag.Bool("incr", false,
		"delta-rerun cell: run pado/mr once to prime a commit store, change -incr-delta of the "+
			"input, rerun against the store, and fail unless the rerun launched under 10% of the "+
			"first run's tasks (the report, if -reportdir is set, is the rerun's)")
	incrDelta := flag.Float64("incr-delta", 0.02,
		"with -incr: fraction of the input partitions changed between the two runs")
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

	base := harness.Params{
		Transient:      *transient,
		Reserved:       *reserved,
		Size:           *size,
		Tasks:          *tasks,
		Scale:          vtime.NewScale(time.Duration(*scaleMS) * time.Millisecond),
		TimeoutMinutes: *timeout,
		Seed:           *seed,
		Repeats:        *repeats,
		TraceDir:       *traceDir,
		ReportDir:      *reportDir,
		HTTPAddr:       *httpAddr,
	}
	if *noAgg || *noCache || *pull || *aggMax != 0 || *padoReduce != 0 {
		base.PadoConfig = func(cfg *runtime.Config) {
			cfg.DisablePartialAggregation = *noAgg
			cfg.DisableCache = *noCache
			cfg.PullBoundaries = *pull
			if *aggMax != 0 {
				cfg.AggMaxTasks = *aggMax
			}
			if *padoReduce != 0 {
				cfg.Plan.ReduceParallelism = *padoReduce
			}
		}
	}

	if err := base.SetCell(*engine, *workload, *rate); err != nil {
		fatalf("%v", err)
	}

	if *jobs > 0 {
		runJobs(base, *jobs, *mix, *stagger, *requireSpeedup)
		return
	}

	if *incr {
		runIncr(base, *incrDelta)
		return
	}

	if *single {
		out, err := harness.Run(base)
		if err != nil {
			fatalf("run: %v", err)
		}
		fmt.Println(out)
		fmt.Printf("  %s\n", out.Metrics)
		if out.ReportPath != "" {
			fmt.Printf("  report: %s\n", out.ReportPath)
		}
		if out.TimedOut {
			fatalf("FAIL: run timed out after %.0f paper minutes", base.TimeoutMinutes)
		}
		if out.Chaos != nil && !out.Chaos.OK() {
			fatalf("FAIL: %d invariant violation(s)", len(out.Chaos.Violations))
		}
		return
	}

	run := func(name string, f func(harness.Params) *harness.Table) {
		fmt.Printf("=== Figure %s ===\n", name)
		start := time.Now()
		fmt.Print(f(base))
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	switch *figure {
	case "5":
		run("5 (ALS)", harness.Figure5)
	case "6":
		run("6 (MLR)", harness.Figure6)
	case "7":
		run("7 (MR)", harness.Figure7)
	case "8":
		run("8 (reserved ratio)", harness.Figure8)
	case "9":
		run("9 (scalability)", harness.Figure9)
	case "all":
		run("5 (ALS)", harness.Figure5)
		run("6 (MLR)", harness.Figure6)
		run("7 (MR)", harness.Figure7)
		run("8 (reserved ratio)", harness.Figure8)
		run("9 (scalability)", harness.Figure9)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runIncr drives the delta-rerun cell: two pado/mr runs against one
// commit store, the second with a fraction of the input changed. The
// gate is the tentpole's acceptance bound — the rerun may launch fewer
// than 10% of the priming run's tasks; everything else is served from
// the store.
func runIncr(base harness.Params, delta float64) {
	p := base
	p.Engine = harness.EnginePado
	p.Workload = harness.WorkloadMR
	// The launch gate needs the traced obs.task_launched counter:
	// OriginalTasks counts a stage's full task total at schedule time,
	// before skips are applied, so it is blind to incremental reruns.
	p.ForceTrace = true
	inc, err := harness.RunIncremental(p, delta)
	if err != nil {
		fatalf("%v", err)
	}
	m := inc.Rerun.Metrics.Named
	launched1 := inc.Prime.Metrics.Named["obs.task_launched"]
	launched2 := m["obs.task_launched"]
	fmt.Printf("prime: %s\nrerun: %s\n%s\n  launched %d of %d tasks\n",
		inc.Prime, inc.Rerun, inc, launched2, launched1)
	if inc.Rerun.ReportPath != "" {
		fmt.Printf("  report: %s\n", inc.Rerun.ReportPath)
	}
	if inc.Prime.TimedOut || inc.Rerun.TimedOut {
		fatalf("FAIL: a run of the delta-rerun cell timed out")
	}
	if m[metrics.NameTasksSkipped]+m[metrics.NameStagesSkipped] == 0 {
		fatalf("FAIL: delta rerun skipped nothing")
	}
	if launched2*10 >= launched1 {
		fatalf("FAIL: delta rerun launched %d of %d tasks (bound: under 10%%)",
			launched2, launched1)
	}
}

// runJobs drives the multi-job path: n concurrent jobs drawn round-robin
// from the mix cycle, all sharing one cluster under the job manager.
func runJobs(base harness.Params, n int, mix string, stagger, requireSpeedup float64) {
	p := base
	p.Engine = harness.EnginePado
	cycle := strings.Split(mix, ",")
	for i := 0; i < n; i++ {
		name := strings.TrimSpace(cycle[i%len(cycle)])
		weight := 0.0
		if at := strings.IndexByte(name, ':'); at >= 0 {
			if _, err := fmt.Sscanf(name[at+1:], "%g", &weight); err != nil || weight <= 0 {
				fatalf("bad weight in -mix entry %q", name)
			}
			name = name[:at]
		}
		w, err := harness.ParseWorkload(name)
		if err != nil {
			fatalf("-mix: %v", err)
		}
		p.Jobs = append(p.Jobs, harness.JobSpec{
			Workload:       w,
			Weight:         weight,
			StaggerMinutes: float64(i) * stagger,
		})
	}

	out, err := harness.RunJobs(p)
	if err != nil {
		fatalf("multi-job run: %v", err)
	}
	fmt.Println(out)
	for _, j := range out.Jobs {
		if j.ReportPath != "" {
			fmt.Printf("  report: %s\n", j.ReportPath)
		}
	}
	if out.AggregatePath != "" {
		fmt.Printf("  aggregate report: %s\n", out.AggregatePath)
	}
	if !out.OK() {
		fatalf("FAIL: a job timed out, errored, or violated an invariant")
	}

	if requireSpeedup > 0 {
		_, serial, err := harness.RunJobsSerial(p)
		if err != nil {
			fatalf("serial baseline: %v", err)
		}
		sp := out.Speedup(serial)
		fmt.Printf("serial total=%.1f min  speedup=%.2fx\n", serial, sp)
		if sp < requireSpeedup {
			fatalf("FAIL: speedup %.2fx below required %.2fx", sp, requireSpeedup)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
