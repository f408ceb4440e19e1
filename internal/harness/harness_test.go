package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

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
	// The master publishes the job's reserved-slot claim and the most
	// reserved slots it ever held; Algorithm 1's plan must fit the claim.
	budget := out.Metrics.Named["reserved_slots_budget"]
	peak := out.Metrics.Named["reserved_slots_peak"]
	if budget <= 0 || peak <= 0 {
		t.Fatalf("reserved_slots_budget %d, reserved_slots_peak %d: counters missing", budget, peak)
	}
	if peak > budget {
		t.Errorf("reserved slot peak %d exceeds budget %d", peak, budget)
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
