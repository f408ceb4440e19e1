package analyze_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pado/internal/obs"
	"pado/internal/obs/analyze"
)

var update = flag.Bool("update", false, "rewrite golden files")

// handBuilt is a two-stage run with one eviction, fully hand-computed:
//
//	stage 0 (reserved-root): receiver r1, fragment tasks on t1/t2;
//	t2 is evicted at 8ms destroying task 1's first attempt (launched
//	at 2ms), which relaunches on t3 at 11ms. The receiver finalizes
//	at 22ms. Stage 1 (terminal) pulls 500B from stage 0 on t1 during
//	[25ms, 26ms] and completes at 32ms.
//
// Expected critical path (13 segments tiling [0ms, 32ms]):
//
//	compute 15ms, push 2ms, fetch 1ms, sched 5ms, relaunch 9ms
func handBuilt() []obs.Event {
	at := func(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }
	return []obs.Event{
		{T: at(0), Kind: obs.ContainerUp, Exec: "r1", Note: "reserved"},
		{T: at(0), Kind: obs.ContainerUp, Exec: "t1", Note: "transient"},
		{T: at(0), Kind: obs.ContainerUp, Exec: "t2", Note: "transient"},
		{T: at(0), Kind: obs.ContainerUp, Exec: "t3", Note: "transient"},
		{T: at(0), Kind: obs.StageScheduled, Stage: 0},
		{T: at(1), Kind: obs.ReceiverReady, Stage: 0, Frag: obs.ReservedFrag, Task: 0, Exec: "r1"},
		{T: at(1), Kind: obs.TaskLaunched, Stage: 0, Frag: obs.ReservedFrag, Task: 0, Attempt: 0, Exec: "r1"},
		{T: at(2), Kind: obs.TaskLaunched, Stage: 0, Frag: 0, Task: 0, Attempt: 0, Exec: "t1"},
		{T: at(2), Kind: obs.TaskLaunched, Stage: 0, Frag: 0, Task: 1, Attempt: 0, Exec: "t2"},
		{T: at(8), Kind: obs.ContainerEvicted, Exec: "t2"},
		{T: at(9), Kind: obs.TaskRelaunched, Stage: 0, Frag: 0, Task: 1, Attempt: 1, Exec: "t2", Note: "evicted"},
		{T: at(10), Kind: obs.TaskFinished, Stage: 0, Frag: 0, Task: 0, Attempt: 0, Exec: "t1"},
		{T: at(10), Kind: obs.PushStarted, Stage: 0, Frag: 0, Task: 0, Attempt: 0, Exec: "t1", Bytes: 100},
		{T: at(11), Kind: obs.TaskLaunched, Stage: 0, Frag: 0, Task: 1, Attempt: 1, Exec: "t3"},
		{T: at(12), Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 0, Attempt: 0, Exec: "t1", Bytes: 100},
		{T: at(18), Kind: obs.TaskFinished, Stage: 0, Frag: 0, Task: 1, Attempt: 1, Exec: "t3"},
		{T: at(18), Kind: obs.PushStarted, Stage: 0, Frag: 0, Task: 1, Attempt: 1, Exec: "t3", Bytes: 200},
		{T: at(20), Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 1, Attempt: 1, Exec: "t3", Bytes: 200},
		{T: at(22), Kind: obs.TaskFinished, Stage: 0, Frag: obs.ReservedFrag, Task: 0, Attempt: 0, Exec: "r1"},
		{T: at(22), Kind: obs.StageComplete, Stage: 0},
		{T: at(23), Kind: obs.StageScheduled, Stage: 1},
		{T: at(24), Kind: obs.TaskLaunched, Stage: 1, Frag: 0, Task: 0, Attempt: 0, Exec: "t1"},
		{T: at(25), Kind: obs.FetchStarted, Stage: 0, Frag: 0, Task: 0, Exec: "t1", Note: "pull"},
		{T: at(26), Kind: obs.FetchDone, Stage: 0, Frag: 0, Task: 0, Exec: "t1", Note: "pull", Bytes: 500},
		{T: at(30), Kind: obs.TaskFinished, Stage: 1, Frag: 0, Task: 0, Attempt: 0, Exec: "t1"},
		{T: at(31), Kind: obs.PushCommitted, Stage: 1, Frag: 0, Task: 0, Attempt: 0, Exec: "t1", Bytes: 50},
		{T: at(32), Kind: obs.StageComplete, Stage: 1},
	}
}

func handBuiltOptions() analyze.Options {
	return analyze.Options{
		StageParents: map[int][]int{0: {}, 1: {0}},
		JCT:          32 * time.Millisecond,
		Engine:       "pado",
		Workload:     "handbuilt",
		Rate:         "none",
		Seed:         7,
	}
}

func TestAnalyzeHandBuiltCriticalPath(t *testing.T) {
	r := analyze.Analyze(handBuilt(), handBuiltOptions())

	if got, want := r.CritPath.TotalNS, int64(32*time.Millisecond); got != want {
		t.Fatalf("critical path total = %d, want %d (the measured JCT)", got, want)
	}
	wantClasses := map[string]time.Duration{
		analyze.ClassCompute:  15 * time.Millisecond,
		analyze.ClassPush:     2 * time.Millisecond,
		analyze.ClassFetch:    1 * time.Millisecond,
		analyze.ClassSched:    5 * time.Millisecond,
		analyze.ClassRelaunch: 9 * time.Millisecond,
	}
	for class, want := range wantClasses {
		if got := r.CritPath.Class(class); got != int64(want) {
			t.Errorf("class %s = %v, want %v", class, time.Duration(got), want)
		}
	}

	// Segments must tile [0, total] contiguously: that is what makes
	// "critical-path length == JCT" hold by construction.
	segs := r.CritPath.Segments
	if len(segs) != 13 {
		t.Errorf("got %d segments, want 13: %+v", len(segs), segs)
	}
	cursor := int64(0)
	for i, s := range segs {
		if s.StartNS != cursor {
			t.Fatalf("segment %d starts at %d, want %d (gap or overlap)", i, s.StartNS, cursor)
		}
		if s.EndNS <= s.StartNS {
			t.Fatalf("segment %d is empty or reversed: %+v", i, s)
		}
		cursor = s.EndNS
	}
	if cursor != r.CritPath.TotalNS {
		t.Fatalf("segments end at %d, want %d", cursor, r.CritPath.TotalNS)
	}

	// The eviction segment blames the destroyed attempt's executor.
	foundWaste := false
	for _, s := range segs {
		if s.Class == analyze.ClassRelaunch && s.Note == "wasted_compute:evicted" {
			foundWaste = true
			if s.Exec != "t2" {
				t.Errorf("wasted_compute blames %q, want t2", s.Exec)
			}
			if s.Dur() != 7*time.Millisecond {
				t.Errorf("wasted_compute = %v, want 7ms", s.Dur())
			}
		}
	}
	if !foundWaste {
		t.Error("no wasted_compute:evicted segment on the critical path")
	}
}

func TestAnalyzeHandBuiltWaste(t *testing.T) {
	r := analyze.Analyze(handBuilt(), handBuiltOptions())

	w := r.Waste
	if w.EvictionsTotal != 1 || len(w.Evictions) != 1 {
		t.Fatalf("evictions = %d listed / %d total, want 1/1", len(w.Evictions), w.EvictionsTotal)
	}
	ev := w.Evictions[0]
	if ev.Exec != "t2" || ev.TasksKilled != 1 {
		t.Errorf("eviction = %+v, want exec t2 killing 1 task", ev)
	}
	if got, want := ev.ComputeLostNS, int64(7*time.Millisecond); got != want {
		t.Errorf("eviction compute lost = %d, want %d (launch 2ms -> relaunch 9ms)", got, want)
	}
	if w.ComputeLostNS != ev.ComputeLostNS || w.TasksKilled != 1 {
		t.Errorf("waste totals %+v disagree with the per-eviction sum", w)
	}
	if w.FailureTasks != 0 || w.FailureComputeLostNS != 0 || w.RestartComputeLostNS != 0 {
		t.Errorf("unexpected non-eviction waste: %+v", w)
	}

	if r.Containers.Up != 4 || r.Containers.Evicted != 1 || r.Containers.Failed != 0 {
		t.Errorf("containers = %+v, want 4 up / 1 evicted / 0 failed", r.Containers)
	}
}

func TestAnalyzeHandBuiltStages(t *testing.T) {
	r := analyze.Analyze(handBuilt(), handBuiltOptions())

	if len(r.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(r.Stages))
	}
	s0, s1 := r.Stages[0], r.Stages[1]
	if s0.ID != 0 || s1.ID != 1 {
		t.Fatalf("stage order = %d, %d; want 0, 1", s0.ID, s1.ID)
	}
	if s0.Launched != 4 || s0.Relaunched != 1 || s0.Commits != 2 {
		t.Errorf("stage 0 = %+v, want 4 launched / 1 relaunched / 2 commits", s0)
	}
	if s0.PushBytes != 300 || s0.FetchBytes != 500 {
		t.Errorf("stage 0 bytes = push %d fetch %d, want 300/500", s0.PushBytes, s0.FetchBytes)
	}
	// Two fragment attempts finished in stage 0: 8ms and 7ms.
	if s0.Latency.Count != 2 {
		t.Errorf("stage 0 latency count = %d, want 2", s0.Latency.Count)
	}
	if got, want := s0.MaxNS, int64(8*time.Millisecond); got != want {
		t.Errorf("stage 0 max latency = %d, want %d", got, want)
	}
	if s1.Latency.Count != 1 || s1.MaxNS != int64(6*time.Millisecond) {
		t.Errorf("stage 1 latency = %+v, want one 6ms sample", s1.Latency)
	}
	// Too few samples for straggler detection.
	if len(r.Stragglers) != 0 {
		t.Errorf("stragglers = %+v, want none (under 4 samples per stage)", r.Stragglers)
	}
}

func TestAnalyzeDeterministicJSON(t *testing.T) {
	var a, b bytes.Buffer
	if err := analyze.Analyze(handBuilt(), handBuiltOptions()).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Analyze(handBuilt(), handBuiltOptions()).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two analyses of the same stream produced different JSON")
	}
}

func TestAnalyzeGolden(t *testing.T) {
	golden := filepath.Join("testdata", "handbuilt.report.json")
	var buf bytes.Buffer
	if err := analyze.Analyze(handBuilt(), handBuiltOptions()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden file; rerun with -update and review the diff\ngot:\n%s", buf.String())
	}

	// The golden file must load back through the padoreport path.
	rep, err := analyze.Load(golden)
	if err != nil {
		t.Fatalf("load golden: %v", err)
	}
	if rep.JCTNS != int64(32*time.Millisecond) {
		t.Errorf("reloaded jct = %d, want 32ms", rep.JCTNS)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatalf("render golden: %v", err)
	}
	if text.Len() == 0 {
		t.Error("text rendering is empty")
	}
}

func TestAnalyzeEmptyStream(t *testing.T) {
	r := analyze.Analyze(nil, analyze.Options{})
	if r.JCTNS != 0 || len(r.Stages) != 0 || len(r.CritPath.Segments) != 0 {
		t.Errorf("empty stream produced non-empty report: %+v", r)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDiffReports(t *testing.T) {
	base := analyze.Analyze(handBuilt(), handBuiltOptions())

	// Stretch the run: shift the eviction's relaunch later so waste and
	// JCT both grow.
	events := handBuilt()
	for i := range events {
		events[i].T *= 2
	}
	opts := handBuiltOptions()
	opts.JCT = 64 * time.Millisecond
	cur := analyze.Analyze(events, opts)

	d := analyze.DiffReports(base, cur, "base", "cur")
	if d.JCTDeltaNS != int64(32*time.Millisecond) {
		t.Errorf("jct delta = %d, want +32ms", d.JCTDeltaNS)
	}
	if d.JCTDeltaPct != 100 {
		t.Errorf("jct delta pct = %v, want 100", d.JCTDeltaPct)
	}
	if d.WasteComputeCurNS != 2*d.WasteComputeBaseNS {
		t.Errorf("waste compute = %d -> %d, want doubled", d.WasteComputeBaseNS, d.WasteComputeCurNS)
	}
	var relaunch analyze.ClassDelta
	for _, c := range d.Classes {
		if c.Class == analyze.ClassRelaunch {
			relaunch = c
		}
	}
	// Every segment doubled, so class shares are unchanged.
	if relaunch.BaseFrac != relaunch.CurFrac {
		t.Errorf("relaunch share moved %v -> %v on a uniform stretch", relaunch.BaseFrac, relaunch.CurFrac)
	}
	var text bytes.Buffer
	if err := d.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Error("diff text rendering is empty")
	}

	// A report diffed against itself is zero everywhere.
	self := analyze.DiffReports(cur, cur, "cur", "cur")
	if len(self.Classes) == 0 || len(self.Stages) == 0 {
		t.Fatalf("self-diff has %d classes and %d stages", len(self.Classes), len(self.Stages))
	}
	if self.JCTDeltaNS != 0 || self.JCTDeltaPct != 0 {
		t.Errorf("self-diff jct delta %d ns (%+.1f%%)", self.JCTDeltaNS, self.JCTDeltaPct)
	}
	for _, c := range self.Classes {
		if c.DeltaNS != 0 {
			t.Errorf("self-diff class %s delta %d ns", c.Class, c.DeltaNS)
		}
	}
	for _, s := range self.Stages {
		if s.DeltaP95NS != 0 {
			t.Errorf("self-diff stage %d p95 delta %d ns", s.ID, s.DeltaP95NS)
		}
	}
	if err := self.WriteText(io.Discard); err != nil {
		t.Error(err)
	}
}
