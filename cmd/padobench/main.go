// Command padobench regenerates the paper's evaluation figures (5-9) on
// the simulated datacenter, or runs a single experiment.
//
//	padobench -figure 5           # ALS eviction-rate sweep
//	padobench -figure all         # everything
//	padobench -single -engine pado -workload mlr -rate high
//	padobench -jobs 3 -mix mr,mr,mlr -rate medium
//
// -figure exits non-zero when a cell fails (a timed-out cell is a figure
// point). -single exits non-zero when the run times out or aborts. -jobs
// runs N concurrent jobs on one shared cluster under the multi-job manager
// and exits non-zero unless every job completes with its invariants intact.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pado/internal/harness"
	"pado/internal/profile"
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
		"multi-job: comma-separated workload cycle assigned round-robin (e.g. mlr,mr,mr)")
	stagger := flag.Float64("stagger", 0, "multi-job: paper minutes between successive submissions")
	httpAddr := flag.String("http", "",
		"serve the live introspection plane on this address while the run is up "+
			"(pado engine only; e.g. 127.0.0.1:7777, :0 picks a port; monitor with padotop)")
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
		Scale:          vtime.NewScale(time.Duration(*scaleMS) * time.Millisecond),
		TimeoutMinutes: *timeout,
		Seed:           *seed,
		Repeats:        *repeats,
		TraceDir:       *traceDir,
		ReportDir:      *reportDir,
		HTTPAddr:       *httpAddr,
	}
	if err := base.SetCell(*engine, *workload, *rate); err != nil {
		fatalf("%v", err)
	}

	if *jobs > 0 {
		runJobs(base, *jobs, *mix, *stagger)
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

	failed := false
	run := func(name string, f func(harness.Params) *harness.Table) {
		fmt.Printf("=== Figure %s ===\n", name)
		start := time.Now()
		t := f(base)
		fmt.Print(t)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		if err := t.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: figure %s: %v\n", name, err)
			failed = true
		}
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
	if failed {
		os.Exit(1)
	}
}

// runJobs drives the multi-job path: n concurrent jobs drawn round-robin
// from the mix cycle, all sharing one cluster under the job manager.
func runJobs(base harness.Params, n int, mix string, stagger float64) {
	p := base
	p.Engine = harness.EnginePado
	cycle := strings.Split(mix, ",")
	for i := 0; i < n; i++ {
		w, err := harness.ParseWorkload(strings.TrimSpace(cycle[i%len(cycle)]))
		if err != nil {
			fatalf("-mix: %v", err)
		}
		p.Jobs = append(p.Jobs, harness.JobSpec{
			Workload:       w,
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

}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
