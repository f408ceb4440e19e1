package harness

import (
	"path/filepath"
	"testing"
	"time"

	"pado/internal/metrics"
	"pado/internal/storage"
	"pado/internal/trace"
	"pado/internal/vtime"
)

func multiParams(t *testing.T) Params {
	t.Helper()
	return Params{
		Engine:         EnginePado,
		Rate:           trace.RateNone,
		Transient:      8,
		Reserved:       2,
		Size:           0.05,
		Scale:          vtime.NewScale(10 * time.Millisecond),
		TimeoutMinutes: 600,
		Seed:           424242,
		Jobs: []JobSpec{
			{Workload: WorkloadMR},
			{Workload: WorkloadMR},
		},
	}
}

// TestRunJobsSharedCluster is the end-to-end multi-job smoke: two MR
// jobs on one shared cluster must both complete with per-job invariants
// held, distinct job ids, and per-job + aggregate reports on disk.
func TestRunJobsSharedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job harness run skipped in short mode")
	}
	p := multiParams(t)
	p.ReportDir = t.TempDir()

	out, err := RunJobs(p)
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if !out.OK() {
		t.Fatalf("multi-job run not OK:\n%s", out)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("got %d job outcomes, want 2", len(out.Jobs))
	}
	if out.Jobs[0].JobID == out.Jobs[1].JobID {
		t.Errorf("jobs share an id: %d", out.Jobs[0].JobID)
	}
	if out.MakespanMinutes <= 0 {
		t.Errorf("makespan = %v, want > 0", out.MakespanMinutes)
	}
	for _, j := range out.Jobs {
		if j.Digest == "" {
			t.Errorf("job %s: empty determinism digest", j.Name)
		}
		if j.Chaos == nil || !j.Chaos.OK() {
			t.Errorf("job %s: invariants not verified: %v", j.Name, j.Chaos)
		}
		if j.ReportPath == "" {
			t.Errorf("job %s: no report written", j.Name)
		} else if _, err := filepath.Glob(j.ReportPath); err != nil {
			t.Errorf("job %s: bad report path: %v", j.Name, err)
		}
	}
	if out.AggregatePath == "" {
		t.Error("no aggregate report written")
	}
}

// TestRunJobsSerialBaseline: the serial baseline runs each spec on its
// own cluster and sums the JCTs.
func TestRunJobsSerialBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("serial baseline run skipped in short mode")
	}
	p := multiParams(t)
	outs, total, err := RunJobsSerial(p)
	if err != nil {
		t.Fatalf("RunJobsSerial: %v", err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outs))
	}
	var sum float64
	for _, o := range outs {
		if o.TimedOut {
			t.Errorf("serial job timed out")
		}
		sum += o.JCTMinutes
	}
	if total != sum {
		t.Errorf("total = %v, want sum of JCTs %v", total, sum)
	}
}

// TestRunJobsValidation pins the mode's preconditions.
func TestRunJobsValidation(t *testing.T) {
	p := multiParams(t)
	p.Jobs = nil
	if _, err := RunJobs(p); err == nil {
		t.Error("RunJobs with no specs should fail")
	}
	p = multiParams(t)
	p.Engine = EngineSpark
	if _, err := RunJobs(p); err == nil {
		t.Error("RunJobs on a non-Pado engine should fail")
	}
}

// TestRunJobsWithCommitStore: the multi-job path hands Params.CommitStore
// to its manager, so a second round of the same jobs against the same
// store is served from it, and arrives at the same outputs.
func TestRunJobsWithCommitStore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job harness run skipped in short mode")
	}
	p := multiParams(t)
	p.Jobs = []JobSpec{{Workload: WorkloadMR}, {Workload: WorkloadMLR}}
	p.CommitStore = storage.NewCommitStore()

	round := func() MultiOutcome {
		t.Helper()
		out, err := RunJobs(p)
		if err != nil {
			t.Fatalf("RunJobs: %v", err)
		}
		if !out.OK() {
			t.Fatalf("multi-job run not OK:\n%s", out)
		}
		return out
	}
	first, second := round(), round()
	if st := p.CommitStore.Stats(); st.Manifests == 0 {
		t.Fatalf("two rounds left the store empty: %+v", st)
	}
	mr := second.Jobs[0].Metrics.Named
	if skipped := mr[metrics.NameTasksSkipped] + mr[metrics.NameStagesSkipped]; skipped == 0 {
		t.Errorf("round two's MR job skipped nothing: %v", mr)
	}
	// MR sums integers, so its output is exact under any schedule.
	if a, b := first.Jobs[0].Digest, second.Jobs[0].Digest; a != b {
		t.Errorf("MR job: digest %s in round one, %s in round two", a, b)
	}
	// MLR sums float gradients in arrival order inside internal/runtime, so
	// on the real clock its model repeats to rounding only, with or without
	// a store: the pass-through stays, the digest check skips (ROADMAP item 1 (CombineFn determinism)).
	t.Run("mlr-digest", func(t *testing.T) {
		if a, b := first.Jobs[1].Digest, second.Jobs[1].Digest; a != b {
			t.Skipf("seed %d: MLR job digest %.8s in round one, %.8s in round two (ROADMAP item 1 (CombineFn determinism))", p.Seed, a, b)
		}
	})
}
