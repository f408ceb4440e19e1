package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// submitWordCount submits one wordcount job to jm and returns its handle
// plus the expected reduced output.
func submitWordCount(t *testing.T, jm *JobManager, parts, recs int, cfg Config, opts JobOptions) (*JobHandle, map[string]int64) {
	t.Helper()
	pipe, expect := buildWordCount(parts, recs)
	h, err := jm.Submit(pipe.Graph(), cfg, opts)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return h, expect
}

// TestMultiJobConcurrent runs three wordcount jobs concurrently on one
// shared cluster: each must produce its own correct output, and the
// per-job metric scopes must count only their own job's tasks.
func TestMultiJobConcurrent(t *testing.T) {
	cl := newTestCluster(t, 6, 2, trace.RateNone)
	tracer := obs.New()
	jm, err := NewJobManager(cl, ManagerConfig{Tracer: tracer})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer jm.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 3
	handles := make([]*JobHandle, n)
	expects := make([]map[string]int64, n)
	mets := make([]*metrics.Job, n)
	for i := 0; i < n; i++ {
		mets[i] = &metrics.Job{}
		handles[i], expects[i] = submitWordCount(t, jm, 4, 120+10*i, Config{Tracer: tracer}, JobOptions{Metrics: mets[i]})
	}
	for i := 0; i < n; i++ {
		res, err := handles[i].Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", handles[i].ID(), err)
		}
		checkWordCount(t, res, expects[i])
		if res.Metrics.OriginalTasks == 0 {
			t.Errorf("job %d: no tasks counted in its own metric scope", handles[i].ID())
		}
	}

	// Metric isolation: the sum of per-job original tasks must equal
	// each job's own count summed, and no scope may see another job's
	// tasks (each job has 4 source + 4 map fragments, same shape).
	want := mets[0].Counter("original_tasks").Load()
	for i := 1; i < n; i++ {
		if got := mets[i].Counter("original_tasks").Load(); got != want {
			t.Errorf("job scopes diverge: met[%d] original_tasks=%d, met[0]=%d", i, got, want)
		}
	}

	// Event isolation: every task-level event must carry a job id, and
	// all three jobs must appear in the shared trace.
	seen := map[int]bool{}
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.TaskLaunched {
			if ev.Job == 0 {
				t.Fatalf("task event without job id: %+v", ev)
			}
			seen[ev.Job] = true
		}
	}
	if len(seen) != n {
		t.Errorf("trace saw task launches from %d jobs, want %d", len(seen), n)
	}
}

// TestAdmissionQueueing pins the admission-control path: with a budget
// that fits one job at a time, the second submission must queue (with a
// JobQueued event), then admit and complete once the first finishes.
func TestAdmissionQueueing(t *testing.T) {
	cl := newTestCluster(t, 6, 2, trace.RateNone)
	tracer := obs.New()
	jm, err := NewJobManager(cl, ManagerConfig{
		Env:    core.PolicyEnv{ReservedSlotBudget: 8},
		Tracer: tracer,
	})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer jm.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	h1, exp1 := submitWordCount(t, jm, 4, 100, Config{Tracer: tracer}, JobOptions{ReservedSlots: 8})
	h2, exp2 := submitWordCount(t, jm, 4, 100, Config{Tracer: tracer}, JobOptions{ReservedSlots: 8})

	res1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	res2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	checkWordCount(t, res1, exp1)
	checkWordCount(t, res2, exp2)

	var queued, admitted2 bool
	var queuedAt, admittedAt int
	for i, ev := range tracer.Events() {
		switch {
		case ev.Kind == obs.JobQueued && ev.Job == h2.ID():
			queued, queuedAt = true, i
		case ev.Kind == obs.JobAdmitted && ev.Job == h2.ID():
			admitted2, admittedAt = true, i
		}
	}
	if !queued {
		t.Fatal("second job never queued despite an exhausted budget")
	}
	if !admitted2 || admittedAt < queuedAt {
		t.Fatal("second job was not admitted after queueing")
	}
}

// TestAdmissionReject: a job whose demand is larger than the whole cell
// could never be admitted, so it is rejected instead of queued.
func TestAdmissionReject(t *testing.T) {
	cl := newTestCluster(t, 6, 2, trace.RateNone)
	tracer := obs.New()
	jm, err := NewJobManager(cl, ManagerConfig{
		Env:    core.PolicyEnv{ReservedSlotBudget: 8},
		Tracer: tracer,
	})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer jm.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hBig, _ := submitWordCount(t, jm, 2, 50, Config{Tracer: tracer}, JobOptions{ReservedSlots: 9})
	if _, err := hBig.Wait(ctx); err == nil || !strings.Contains(err.Error(), "exceeds cell budget") {
		t.Fatalf("oversized demand: err = %v, want cell-budget rejection", err)
	}
}

// TestCancelQueuedHeadAdmitsNext: cancelling the job at the head of the
// admission queue admits the jobs behind it that now fit, without
// waiting for an unrelated job to finish. It drives the manager's event
// handler directly; the cluster is never started.
func TestCancelQueuedHeadAdmitsNext(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Transient: 2, Reserved: 1})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	jm := newManager(cl, ManagerConfig{Env: core.PolicyEnv{ReservedSlotBudget: 8}})
	submit := func(demand int) *JobHandle {
		t.Helper()
		h, err := jm.SubmitPlan(benchPlan(t, 2), Config{}, JobOptions{ReservedSlots: demand})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jm.handle(<-jm.events)
		return h
	}
	first, second := submit(3), submit(5)
	head, last := submit(6), submit(3)
	for _, h := range []*JobHandle{first, second} {
		if jm.jobs[h.ID()] == nil {
			t.Fatalf("job %d not admitted into a budget that fits it", h.ID())
		}
	}
	if len(jm.queue) != 2 {
		t.Fatalf("queue holds %d jobs, want 2", len(jm.queue))
	}

	jm.handle(evCancelJob{ID: first.ID()})
	if jm.budgetFree != 3 || jm.jobs[head.ID()] != nil {
		t.Fatalf("after the first cancel: %d slots free, head admitted=%v; want 3 free and the 6-slot head still queued",
			jm.budgetFree, jm.jobs[head.ID()] != nil)
	}
	jm.handle(evCancelJob{ID: head.ID()})
	if jm.jobs[last.ID()] == nil {
		t.Fatalf("job %d still queued with %d reserved slots free after the head was cancelled", last.ID(), jm.budgetFree)
	}
	if len(jm.queue) != 0 {
		t.Fatalf("queue holds %d jobs after the last one was admitted", len(jm.queue))
	}
}

// TestEvictionStormIsolation is the cross-job blast-radius regression:
// a chaos rule fires an eviction storm keyed to job A's task launches;
// job B shares the cluster, so its tasks relaunch, but B's exactly-once
// and relaunch invariants must hold and its output must stay correct.
func TestEvictionStormIsolation(t *testing.T) {
	cl := newTestCluster(t, 8, 2, trace.RateNone)
	tracer := obs.New()
	jm, err := NewJobManager(cl, ManagerConfig{Tracer: tracer})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer jm.Close()

	// Job ids are assigned in submission order: A=1, B=2. Rules fire
	// once each, so the storm is several evictions pinned to successive
	// launches of job A's tasks.
	var rules []chaos.Rule
	for _, count := range []int{2, 6, 10} {
		tr := chaos.On("task_launched")
		tr.Job = 1
		tr.Count = count
		rules = append(rules, chaos.Rule{
			Trigger: tr,
			Fault:   chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any},
		})
	}
	plan := &chaos.Plan{Name: "storm-a", Rules: rules}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := chaos.NewEngine(plan, cl)
	eng.Attach(tracer)
	defer eng.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cfg := Config{Tracer: tracer, Chaos: eng}
	hA, expA := submitWordCount(t, jm, 6, 200, cfg, JobOptions{Name: "storm-target"})
	hB, expB := submitWordCount(t, jm, 6, 200, cfg, JobOptions{Name: "bystander"})

	resA, errA := hA.Wait(ctx)
	resB, errB := hB.Wait(ctx)
	if errA != nil || errB != nil {
		t.Fatalf("jobs failed under storm: A=%v B=%v", errA, errB)
	}
	checkWordCount(t, resA, expA)
	checkWordCount(t, resB, expB)

	eng.Stop()
	if len(eng.Injections()) == 0 {
		t.Fatal("eviction storm never fired")
	}
	events := tracer.Events()
	for _, h := range []*JobHandle{hA, hB} {
		parents := stageParents(resA.Plan)
		if h == hB {
			parents = stageParents(resB.Plan)
		}
		if rep := chaos.CheckJob(events, h.ID(), parents); !rep.OK() {
			t.Errorf("job %d invariants under storm: %s", h.ID(), rep)
		}
	}
}

func stageParents(plan *core.Plan) map[int][]int {
	parents := make(map[int][]int, len(plan.Stages))
	for _, ps := range plan.Stages {
		parents[ps.ID] = ps.Parents
	}
	return parents
}

// TestFairSharing: a small job submitted alongside a much larger one
// must not be starved — it completes while the large job is still
// running, and the task launches of the two jobs interleave.
func TestFairSharing(t *testing.T) {
	// A CPU-limited cluster makes the big job's compute genuinely long,
	// so completion order reflects scheduling, not noise.
	cl, err := cluster.New(cluster.Config{
		Transient:        4,
		Reserved:         2,
		Slots:            4,
		CPURecordsPerSec: 100_000,
		Lifetimes:        trace.Lifetimes(trace.RateNone),
		Scale:            vtime.NewScale(50 * time.Millisecond),
		MinLifetime:      30 * time.Millisecond,
		Seed:             42,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	tracer := obs.New()
	jm, err := NewJobManager(cl, ManagerConfig{Tracer: tracer})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer jm.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// A short aggregation flush keeps the fixed per-stage latency well
	// below the big job's compute, so sizes dominate completion order.
	// The big job must overrun the limiter's per-container burst
	// (rate/4 = 25k records) by a wide margin or its compute is free
	// and completion order degenerates to scheduling noise: 12 parts x
	// 20k records is ~60k records per transient, ~350ms of throttled
	// compute, against the small job's burst-covered 120 records.
	cfg := Config{Tracer: tracer, AggMaxDelay: 2 * time.Millisecond}
	big, expBig := submitWordCount(t, jm, 12, 20000, cfg, JobOptions{Name: "big"})
	small, expSmall := submitWordCount(t, jm, 2, 60, cfg, JobOptions{Name: "small"})

	resSmall, err := small.Wait(ctx)
	if err != nil {
		t.Fatalf("small job: %v", err)
	}
	resBig, err := big.Wait(ctx)
	if err != nil {
		t.Fatalf("big job: %v", err)
	}
	checkWordCount(t, resSmall, expSmall)
	checkWordCount(t, resBig, expBig)

	// The small job must finish before the big one (no head-of-line
	// starvation), and must have launched tasks before the big job
	// finished (interleaved scheduling, not run-after).
	var smallDone, bigDone, smallFirstLaunch int
	smallFirstLaunch = -1
	for i, ev := range tracer.Events() {
		switch {
		case ev.Kind == obs.JobCompleted && ev.Job == small.ID():
			smallDone = i
		case ev.Kind == obs.JobCompleted && ev.Job == big.ID():
			bigDone = i
		case ev.Kind == obs.TaskLaunched && ev.Job == small.ID() && smallFirstLaunch < 0:
			smallFirstLaunch = i
		}
	}
	if smallDone > bigDone {
		t.Errorf("small job finished after the big job (starved): small@%d big@%d", smallDone, bigDone)
	}
	if smallFirstLaunch < 0 || smallFirstLaunch > bigDone {
		t.Errorf("small job's tasks did not interleave with the big job's")
	}
}

// TestMultiJobDeterminism is the multi-job half of the CI determinism
// gate: the same seeds and chaos plan must yield the same per-job
// invariant digests across two independent runs.
func TestMultiJobDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job determinism skipped in short mode")
	}
	run := func() map[int]string {
		cl := newTestCluster(t, 6, 2, trace.RateNone)
		tracer := obs.New()
		jm, err := NewJobManager(cl, ManagerConfig{Tracer: tracer})
		if err != nil {
			t.Fatalf("manager: %v", err)
		}
		defer jm.Close()

		plan := &chaos.Plan{Name: "mj-det", Rules: []chaos.Rule{
			{Trigger: func() chaos.Trigger {
				tr := chaos.On("push_started")
				tr.Count = 2
				return tr
			}(), Fault: chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any}},
		}}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		eng := chaos.NewEngine(plan, cl)
		eng.Attach(tracer)
		defer eng.Stop()

		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		cfg := Config{Tracer: tracer, Chaos: eng}
		h1, exp1 := submitWordCount(t, jm, 4, 150, cfg, JobOptions{})
		h2, exp2 := submitWordCount(t, jm, 4, 300, cfg, JobOptions{})
		res1, err := h1.Wait(ctx)
		if err != nil {
			t.Fatalf("job 1: %v", err)
		}
		res2, err := h2.Wait(ctx)
		if err != nil {
			t.Fatalf("job 2: %v", err)
		}
		checkWordCount(t, res1, exp1)
		checkWordCount(t, res2, exp2)

		eng.Stop()
		events := tracer.Events()
		digests := make(map[int]string, 2)
		for _, hr := range []struct {
			h   *JobHandle
			res *Result
		}{{h1, res1}, {h2, res2}} {
			rep := chaos.CheckJob(events, hr.h.ID(), stageParents(hr.res.Plan))
			if !rep.OK() {
				t.Fatalf("job %d invariants: %s", hr.h.ID(), rep)
			}
			digests[hr.h.ID()] = rep.Digest(chaos.Canonical(hr.res.Outputs))
		}
		return digests
	}
	a, b := run(), run()
	for id, da := range a {
		if db := b[id]; da != db {
			t.Errorf("job %d digest mismatch across identical runs:\n%s\n%s", id, da, db)
		}
	}
}
