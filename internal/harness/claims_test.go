//go:build goexperiment.synctest

package harness

import (
	goruntime "runtime"
	"testing"
	"testing/synctest"
	"time"

	"pado/internal/metrics"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// The evaluation's claims as assertions over paired seeds on a reduced
// cell. Each run is inside a synctest bubble, so JCT and makespan are
// modelled time, free of host load. The package's one asynctimerchan
// line, which the bubble needs, is in bubble_test.go.

// multiJobCell is the pinned multi-job cell: 8 transient + 2 reserved
// containers, size 0.05, 10 ms per paper minute, medium evictions.
func multiJobCell(seed int64, ws ...Workload) Params {
	p := Params{
		Engine:         EnginePado,
		Rate:           trace.RateMedium,
		Transient:      8,
		Reserved:       2,
		Size:           0.05,
		Scale:          vtime.NewScale(10 * time.Millisecond),
		TimeoutMinutes: 600,
		Seed:           seed,
	}
	for _, w := range ws {
		p.Jobs = append(p.Jobs, JobSpec{Workload: w})
	}
	return p
}

// consolidationSpeedup runs p's jobs concurrently on one cluster and
// then one after another on fresh clusters, and returns the serial
// total over the concurrent makespan.
func consolidationSpeedup(t *testing.T, p Params) float64 {
	t.Helper()
	var multi MultiOutcome
	var serial float64
	var errMulti, errSerial error
	synctest.Run(func() { multi, errMulti = RunJobs(p) })
	synctest.Run(func() { _, serial, errSerial = RunJobsSerial(p) })
	if errMulti != nil || errSerial != nil {
		t.Fatalf("seed %d: concurrent: %v, serial: %v", p.Seed, errMulti, errSerial)
	}
	if !multi.OK() {
		t.Fatalf("seed %d: a concurrent job failed:\n%s", p.Seed, multi)
	}
	return multi.Speedup(serial)
}

// TestBubbleConsolidationBeatsSerial is DESIGN §10's consolidation
// claim: three barrier-bound ALS jobs sharing one cluster finish at
// least 1.2x sooner than the same jobs run one after another. The
// mr,mr,mlr mix is logged, not asserted: MLR is bound by the reserved
// NIC, which round-robin over transient slots does not share, so that
// mix runs at about 0.8-1.1x serial (a recorded deviation).
func TestBubbleConsolidationBeatsSerial(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	for seed := int64(1); seed <= 3; seed++ {
		als := consolidationSpeedup(t, multiJobCell(seed, WorkloadALS, WorkloadALS, WorkloadALS))
		mix := consolidationSpeedup(t, multiJobCell(seed, WorkloadMR, WorkloadMR, WorkloadMLR))
		t.Logf("seed %d: speedup 3xALS %.2fx, mr,mr,mlr %.2fx", seed, als, mix)
		if als < 1.2 {
			t.Errorf("seed %d: 3xALS concurrent speedup %.2fx over serial, want >= 1.2x", seed, als)
		}
	}
}

// TestBubbleDeltaRerunReusesCommits is DESIGN §14's delta-rerun claim on
// a reduced cell: MR on Pado without evictions, 8 transient + 2 reserved
// containers, size 0.05, primed once and rerun with 2 % of its input
// partitions changed. On one P the rerun's commit-store counts repeat
// exactly, so they are asserted equal: a change that makes the rerun
// probe, skip or pull differently shows here. The served bytes are also
// held under 55 % of the 153 225 the same cell served while task commits
// held raw records rather than combined sections, and the rerun must
// launch under a tenth of the priming run's tasks.
func TestBubbleDeltaRerunReusesCommits(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	p := Params{
		Engine:    EnginePado,
		Workload:  WorkloadMR,
		Rate:      trace.RateNone,
		Transient: 8,
		Reserved:  2,
		Size:      0.05,
		Scale:     vtime.NewScale(10 * time.Millisecond),
		Seed:      424242,
		// obs.task_launched is a traced counter. OriginalTasks counts a
		// stage's tasks before skips, so it cannot see what a rerun saved.
		ForceTrace: true,
	}
	var inc Incremental
	var err error
	synctest.Run(func() { inc, err = RunIncremental(p, 0.02) })
	if err != nil {
		t.Fatal(err)
	}
	if inc.Prime.TimedOut || inc.Rerun.TimedOut {
		t.Fatalf("timed out: prime %v, rerun %v", inc.Prime.TimedOut, inc.Rerun.TimedOut)
	}
	m := inc.Rerun.Metrics.Named
	launched1 := inc.Prime.Metrics.Named["obs.task_launched"]
	launched2 := m["obs.task_launched"]
	t.Logf("jct prime %.3f, rerun %.3f paper-min; launched %d of %d tasks\n%s",
		inc.Prime.JCTMinutes, inc.Rerun.JCTMinutes, launched2, launched1, inc)
	for _, c := range []struct {
		name string
		want int64
	}{
		{metrics.NameTasksSkipped, 78},
		{metrics.NameCommitProbes, 81},
		{metrics.NameCASBytesServed, 77685},
	} {
		if got := m[c.name]; got != c.want {
			t.Errorf("rerun %s = %d, want %d", c.name, got, c.want)
		}
	}
	if served := m[metrics.NameCASBytesServed]; served*100 > 153225*55 {
		t.Errorf("rerun served %d B from the commit store, want at most 55 %% of 153225", served)
	}
	if launched2*10 >= launched1 {
		t.Errorf("rerun launched %d of the priming run's %d tasks, want under 10 %%", launched2, launched1)
	}
}
