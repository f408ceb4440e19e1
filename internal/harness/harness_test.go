package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/obs/analyze"
	"pado/internal/runtime"
	"pado/internal/trace"
	"pado/internal/vtime"
)

func tinyParams() Params {
	return Params{
		Transient:      6,
		Reserved:       2,
		Scale:          vtime.NewScale(20 * time.Millisecond),
		TimeoutMinutes: 600,
		Size:           0.08,
		Seed:           99,
	}
}

func TestRunAllEnginesTiny(t *testing.T) {
	workloads := []Workload{WorkloadMR, WorkloadMLR, WorkloadALS}
	if testing.Short() {
		// MR alone exercises every engine path; MLR and ALS only add
		// workload shapes, at several seconds each.
		workloads = []Workload{WorkloadMR}
	}
	for _, eng := range AllEngines {
		for _, w := range workloads {
			p := tinyParams()
			p.Engine = eng
			p.Workload = w
			p.Rate = trace.RateNone
			out, err := Run(p)
			if err != nil {
				t.Fatalf("%v/%v: %v", eng, w, err)
			}
			if out.TimedOut {
				t.Fatalf("%v/%v timed out", eng, w)
			}
			if out.JCTMinutes <= 0 {
				t.Errorf("%v/%v: jct = %v", eng, w, out.JCTMinutes)
			}
			if out.String() == "" {
				t.Error("empty outcome string")
			}
			if out.Digest == "" || len(out.Outputs) == 0 {
				t.Errorf("%v/%v: digest %q, %d output vertices", eng, w, out.Digest, len(out.Outputs))
			}
			if out.Events != nil || out.Report != nil {
				t.Errorf("%v/%v: untraced run carries %d events, report %v", eng, w, len(out.Events), out.Report)
			}
		}
	}

	// The digest is of the canonical output, so two runs of one seed agree
	// on it even though their schedules do not.
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateNone
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("same-seed Pado MR runs digest %s and %s", a.Digest, b.Digest)
	}
}

func TestRunWithEvictions(t *testing.T) {
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateHigh
	// At tinyParams' size the job can end before the first container
	// lifetime does (~30 % of runs); four times the input outlasts it.
	p.Size *= 4
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Evictions == 0 {
		t.Error("no evictions at the high rate")
	}
}

func TestRunRepeatsAverages(t *testing.T) {
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateNone
	p.Repeats = 2
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.JCTMinutes <= 0 || out.TimedOut {
		t.Errorf("averaged outcome = %v", out)
	}
	// The averages travel in their own fields; the snapshot stays a real
	// run's (the last repeat's), not counters made up to carry a ratio.
	if out.RelaunchRatio != 0 || out.Evictions != 0 {
		t.Errorf("no evictions, yet relaunch ratio %v, evictions %d", out.RelaunchRatio, out.Evictions)
	}
	if out.Metrics.OriginalTasks == 0 || out.Metrics.OriginalTasks == 1000 {
		t.Errorf("snapshot OriginalTasks = %d, want the last repeat's count", out.Metrics.OriginalTasks)
	}
}

func TestPadoConfigHook(t *testing.T) {
	called := false
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.PadoConfig = func(cfg *runtime.Config) {
		called = true
		cfg.DisablePartialAggregation = true
	}
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("PadoConfig hook not invoked")
	}
}

func TestTraceDirWritesExports(t *testing.T) {
	dir := t.TempDir()
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateHigh
	p.Size *= 4 // outlast the first container lifetime, as in TestRunWithEvictions
	p.TraceDir = dir
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}

	chrome, err := os.ReadFile(filepath.Join(dir, "pado-mr-high-seed99.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range parsed.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"task", "push", "container_evicted"} {
		if !names[want] {
			t.Errorf("trace missing %q events", want)
		}
	}

	timeline, err := os.ReadFile(filepath.Join(dir, "pado-mr-high-seed99.timeline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(timeline, []byte("containers:")) {
		t.Errorf("timeline missing summary:\n%s", timeline)
	}
}

func TestReportDirWritesReport(t *testing.T) {
	dir := t.TempDir()
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateHigh
	p.ReportDir = dir
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "pado-mr-high-seed99.report.json")
	if out.ReportPath != want {
		t.Errorf("ReportPath = %q, want %q", out.ReportPath, want)
	}
	rep, err := analyze.Load(want)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "pado" || rep.Workload != "mr" || rep.Rate != "high" || rep.Seed != 99 {
		t.Errorf("report identity = %s/%s/%s seed %d", rep.Engine, rep.Workload, rep.Rate, rep.Seed)
	}
	if rep.JCTNS <= 0 || rep.CritPath.TotalNS <= 0 || len(rep.Stages) == 0 {
		t.Errorf("report is empty: jct=%d cp=%d stages=%d", rep.JCTNS, rep.CritPath.TotalNS, len(rep.Stages))
	}
	if rep.JCTMinutes <= 0 {
		t.Errorf("report has no paper-minute scale: %v", rep.JCTMinutes)
	}
	// The run used RateHigh, so the stream should carry evictions; the
	// report's counters section must agree with the run's snapshot.
	if rep.Containers.Evicted != int(out.Metrics.Evictions) {
		t.Errorf("report saw %d evictions, snapshot %d", rep.Containers.Evicted, out.Metrics.Evictions)
	}
}

// TestCostModelBeatsAllTransient pins a high-eviction cell and checks the
// cost-model policy's promises against the all-transient baseline:
//
//  1. Structurally, its reserved set is a superset of the baseline's, so
//     every recomputation the baseline avoids, the cost model avoids too
//     (its expected JCT can only be lower or equal).
//  2. End to end, it completes no later than the baseline up to the
//     wall-clock scheduling noise of the simulator (the tiny cell's JCT
//     varies about +/-25% run to run, so the assertion carries a noise
//     allowance rather than a strict <=). Each policy's JCT is the mean
//     over costSeeds seeds, run in pairs — one policy's run then the
//     other's on the same seed — so a stretch of CPU contention from
//     outside the test lands on both policies rather than on one.
//  3. It never uses more reserved slots than the cluster's budget,
//     observable via the reserved_slots_peak / reserved_slots_budget
//     counters the master publishes.
func TestCostModelBeatsAllTransient(t *testing.T) {
	const costSeeds = 15
	pinned := func() Params {
		p := tinyParams()
		p.Engine = EnginePado
		p.Workload = WorkloadMR
		p.Rate = trace.RateHigh
		return p
	}

	// Structural dominance, deterministic: compile both placements for
	// the pinned cell and require cost's reserved set to contain the
	// baseline's.
	p := pinned()
	reservedSet := func(policy string) map[string]bool {
		pol, err := core.PolicyByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.Compile(p.pipeline().Graph(), core.PlanConfig{
			ReduceParallelism: 2 * p.Reserved,
			Policy:            pol,
			Env:               p.clusterConfig().PlacementEnv(),
		})
		if err != nil {
			t.Fatalf("compile %q: %v", policy, err)
		}
		set := make(map[string]bool)
		order, _ := plan.Graph.TopoSort()
		for _, id := range order {
			if v := plan.Graph.Vertex(id); v.Placement == dag.PlaceReserved {
				set[v.Name] = true
			}
		}
		return set
	}
	costSet, allTSet := reservedSet("cost"), reservedSet("all-transient")
	for name := range allTSet {
		if !costSet[name] {
			t.Errorf("all-transient reserves %q but cost does not; cost must dominate the baseline's reserved set", name)
		}
	}

	run := func(policy string, seed int64) Outcome {
		p := pinned()
		p.Policy = policy
		p.Seed = seed
		out, err := Run(p)
		if err != nil {
			t.Fatalf("policy %q seed %d: %v", policy, seed, err)
		}
		if out.TimedOut {
			t.Fatalf("policy %q seed %d timed out", policy, seed)
		}
		return out
	}
	var costJCT, allTJCT float64
	for i := int64(0); i < costSeeds; i++ {
		seed := pinned().Seed + i*7919 // Run's seeding for Repeats
		cost := run("cost", seed)
		costJCT += cost.JCTMinutes / costSeeds
		allTJCT += run("all-transient", seed).JCTMinutes / costSeeds

		budget := cost.Metrics.Named["reserved_slots_budget"]
		peak := cost.Metrics.Named["reserved_slots_peak"]
		if budget <= 0 {
			t.Fatalf("seed %d: reserved_slots_budget counter missing: %v", seed, cost.Metrics.Named)
		}
		if peak <= 0 {
			t.Errorf("seed %d: reserved_slots_peak counter missing: %v", seed, cost.Metrics.Named)
		}
		if peak > budget {
			t.Errorf("seed %d: reserved slot peak %d exceeds budget %d", seed, peak, budget)
		}
	}
	if costJCT > allTJCT*1.35 {
		t.Errorf("cost policy jct = %.2f min, all-transient = %.2f min; cost model should not lose at a high eviction rate",
			costJCT, allTJCT)
	}
}

func TestOutcomeStringPolicy(t *testing.T) {
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateNone
	p.Policy = "cost"
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cost") {
		t.Errorf("outcome string missing policy: %q", out.String())
	}
	p.Policy = ""
	out, err = Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "paper") {
		t.Errorf("outcome string missing default policy label: %q", out.String())
	}
}

// TestReportDirPolicySuffix checks the artifact-name contract: default
// (paper) runs keep their historical file names, non-default policies get
// a "-<policy>" suffix so sweeps don't clobber the baseline.
func TestReportDirPolicySuffix(t *testing.T) {
	dir := t.TempDir()
	p := tinyParams()
	p.Engine = EnginePado
	p.Workload = WorkloadMR
	p.Rate = trace.RateNone
	p.ReportDir = dir
	p.Policy = "all-transient"
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "pado-mr-none-seed99-all-transient.report.json")
	if out.ReportPath != want {
		t.Errorf("ReportPath = %q, want %q", out.ReportPath, want)
	}
	rep, err := analyze.Load(want)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "all-transient" {
		t.Errorf("report policy = %q, want all-transient", rep.Policy)
	}
}

func TestTableGet(t *testing.T) {
	tb := &Table{Title: "t"}
	tb.Rows = append(tb.Rows, Row{Outcome: Outcome{Params: Params{Engine: EnginePado, Rate: trace.RateHigh}, JCTMinutes: 5}})
	out, ok := tb.Get(func(p Params) bool { return p.Engine == EnginePado })
	if !ok || out.JCTMinutes != 5 {
		t.Errorf("Get = %+v, %v", out, ok)
	}
	if _, ok := tb.Get(func(p Params) bool { return p.Engine == EngineSpark }); ok {
		t.Error("Get matched missing row")
	}
	if tb.String() == "" {
		t.Error("empty table render")
	}
}

func TestEngineWorkloadStrings(t *testing.T) {
	if EnginePado.String() != "Pado" || EngineSparkCheckpoint.String() != "Spark-checkpoint" {
		t.Error("engine names wrong")
	}
	if WorkloadALS.String() != "ALS" || WorkloadMR.String() != "MR" || WorkloadMLR.String() != "MLR" {
		t.Error("workload names wrong")
	}
}
