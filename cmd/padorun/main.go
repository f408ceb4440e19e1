// Command padorun runs one of the built-in workloads on a chosen engine
// and cluster shape, printing the compiled plan, the job metrics, and a
// sample of the output — a quick way to poke at the system. It is a set
// of flags over harness.Run: the cell is the one padobench and the figures
// run (same calibrated cluster, same engine configurations), at a small
// workload size.
//
//	padorun -workload mr -engine pado -rate high -plan
//	padorun -trace out.json -timeline -
//
// -trace writes the run's event stream in Chrome trace_event format
// (load it at chrome://tracing or https://ui.perfetto.dev); -timeline
// writes a plain-text per-stage timeline ("-" for stdout).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"pado/internal/chaos"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/harness"
	"pado/internal/obs"
	"pado/internal/profile"
	"pado/internal/runtime"
	"pado/internal/vtime"
)

// size is the workload volume padorun runs, as a fraction of the
// evaluation's: a job of a second or so of wall time.
const size = 0.1

// wallCap bounds a run in wall time whatever the -scale.
const wallCap = 5 * time.Minute

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	// ExitOnError: the flag package reports a bad flag once and exits 2,
	// and -h exits 0, as with the default flag set.
	fs := flag.NewFlagSet("padorun", flag.ExitOnError)
	engine := fs.String("engine", "pado", "engine: pado, spark, spark-checkpoint")
	workload := fs.String("workload", "mr", "workload: mr, mlr, als")
	rate := fs.String("rate", "medium", "eviction rate: none, low, medium, high")
	transient := fs.Int("transient", 12, "transient containers")
	reserved := fs.Int("reserved", 3, "reserved containers")
	scaleMS := fs.Int("scale", 50, "wall milliseconds per paper minute")
	seed := fs.Int64("seed", 1, "seed")
	policy := fs.String("policy", "", "placement policy for the pado engine: "+
		strings.Join(core.PolicyNames(), ", ")+" (default: paper)")
	showPlan := fs.Bool("plan", false, "print the compiled plan (placements and stages)")
	dot := fs.Bool("dot", false, "print the placed logical DAG in Graphviz format")
	sample := fs.Int("sample", 5, "output records to print")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (\"-\" for stdout)")
	timelineOut := fs.String("timeline", "", "write a plain-text per-stage timeline to this file (\"-\" for stdout)")
	reportOut := fs.String("report", "", "write the analyzer report JSON (critical path, eviction costs, stage latencies) to this file (\"-\" for stdout); render it with padoreport")
	chaosPlan := fs.String("chaos", "", "run under the scripted fault schedule in this plan JSON file (see examples/chaos/)")
	heartbeat := fs.Duration("heartbeat", 0, "executor heartbeat period for the failure detector (0 = default 100ms)")
	suspectAfter := fs.Duration("suspect-after", 0, "heartbeat staleness that marks a node suspect (0 = 4x heartbeat)")
	deadAfter := fs.Duration("dead-after", 0, "heartbeat staleness that declares a node dead and triggers recovery; raise on loaded hosts to avoid false positives (0 = 15x heartbeat)")
	rpcDeadline := fs.Duration("rpc-deadline", 0, "per-attempt deadline on data-plane RPCs (0 = no deadline; recovery then relies on heartbeats)")
	noDetector := fs.Bool("no-detector", false, "disable heartbeats and the failure detector (announced failures only)")
	noRPCPolicy := fs.Bool("no-rpc-policy", false, "disable the RPC retry/backoff/breaker layer")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	httpAddr := fs.String("http", "",
		"serve the live introspection plane on this address while the run is up "+
			"(pado engine only; e.g. 127.0.0.1:7777, :0 picks a port; monitor with padotop)")
	incremental := fs.Bool("incremental", false,
		"pado engine only: prime a commit store with one identical run, then run (and report) "+
			"the incremental rerun against it — unchanged stages and tasks are served from the store")
	delta := fs.Float64("delta", 0,
		"with -incremental: fraction of the MR input partitions changed between the priming "+
			"run and the rerun (0 = identical input)")
	fs.Parse(args)
	if *delta != 0 && !*incremental {
		return fmt.Errorf("-delta only makes sense with -incremental")
	}

	prof, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); err == nil {
			err = perr
		}
	}()

	scale := vtime.NewScale(time.Duration(*scaleMS) * time.Millisecond)
	p := harness.Params{
		Transient: *transient, Reserved: *reserved, Scale: scale, Size: size,
		TimeoutMinutes: scale.Minutes(wallCap),
		Policy:         *policy, Seed: *seed, HTTPAddr: *httpAddr,
		ForceTrace: *traceOut != "" || *timelineOut != "" || *reportOut != "",
		Failure: runtime.FailureConfig{
			DisableDetector:  *noDetector,
			HeartbeatEvery:   *heartbeat,
			SuspectAfter:     *suspectAfter,
			DeadAfter:        *deadAfter,
			DisableRPCPolicy: *noRPCPolicy,
			RPCDeadline:      *rpcDeadline,
		},
	}
	if err := p.SetCell(*engine, *workload, *rate); err != nil {
		return err
	}
	if *chaosPlan != "" {
		if p.Chaos, err = chaos.Load(*chaosPlan); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}

	if *showPlan || *dot {
		plan, err := p.Plan()
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		if *dot {
			fmt.Fprintln(stdout, plan.Graph.DOT())
		}
		if *showPlan {
			printPlan(stdout, plan)
		}
	}

	var out harness.Outcome
	var inc harness.Incremental
	if *incremental {
		inc, err = harness.RunIncremental(p, *delta)
		out = inc.Rerun
	} else {
		out, err = harness.Run(p)
	}
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	exports := []struct {
		path  string
		write func(io.Writer) error
	}{
		{*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, out.Events, scale) }},
		{*timelineOut, func(w io.Writer) error { return obs.WriteTimeline(w, out.Events, scale) }},
		{*reportOut, func(w io.Writer) error { return out.Report.WriteJSON(w) }},
	}
	for _, e := range exports {
		if e.path == "" {
			continue
		}
		if err := writeExport(e.path, stdout, e.write); err != nil {
			return err
		}
	}

	snap := out.Metrics
	fmt.Fprintf(stdout, "engine=%s workload=%s rate=%s: jct=%.1f paper-min (%v wall), evictions=%d, relaunched=%d\n",
		strings.ToLower(p.Engine.String()), strings.ToLower(p.Workload.String()), p.Rate,
		out.JCTMinutes, snap.JCT.Round(time.Millisecond), snap.Evictions, snap.RelaunchedTasks)
	if *incremental {
		fmt.Fprintln(stdout, inc)
	}
	for _, inj := range out.Injections {
		fmt.Fprintf(stdout, "chaos injected: %s\n", inj)
	}
	if out.Chaos != nil {
		fmt.Fprintln(stdout, out.Chaos)
		fmt.Fprintf(stdout, "chaos digest: %s\n", out.Digest)
	}
	for vid, recs := range out.Outputs {
		fmt.Fprintf(stdout, "output vertex %d: %d records\n", vid, len(recs))
		show := recs
		sort.Slice(show, func(i, j int) bool {
			return fmt.Sprint(show[i].Key) < fmt.Sprint(show[j].Key)
		})
		for i := 0; i < *sample && i < len(show); i++ {
			fmt.Fprintf(stdout, "  %v\n", summarize(show[i]))
		}
	}
	return nil
}

func summarize(r data.Record) string {
	if v, ok := r.Value.([]float64); ok && len(v) > 4 {
		return fmt.Sprintf("(%v, [%.3f %.3f ... %d values])", r.Key, v[0], v[1], len(v))
	}
	return r.String()
}

func printPlan(w io.Writer, plan *core.Plan) {
	g := plan.Graph
	fmt.Fprintf(w, "operator placement (policy %s):\n", plan.Policy)
	order, _ := g.TopoSort()
	for _, id := range order {
		v := g.Vertex(id)
		fmt.Fprintf(w, "  %-28s %-10s parallelism=%d\n", v.Name, v.Placement, v.Parallelism)
	}
	fmt.Fprintln(w, "stages (Algorithm 2):")
	for _, ps := range plan.Stages {
		kind := "reserved-root"
		if !ps.RootReserved {
			kind = "terminal-transient"
		}
		fmt.Fprintf(w, "  stage %d: root=%s (%s, %d tasks), %d fragment(s), %d cross-stage input(s)\n",
			ps.ID, g.Vertex(ps.Root).Name, kind, ps.RootParallelism, len(ps.Fragments), len(ps.Inputs))
	}
}

// writeExport writes one export to path, "-" meaning stdout.
func writeExport(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
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
