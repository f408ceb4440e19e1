package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/simnet"
	"pado/internal/trace"
)

// TestChaosPullEvictionRegression pins the PullBoundaries failure mode:
// the source container is evicted between commit and fetch, so the
// puller's fetch fails and the master must un-commit and relaunch the
// task (evPullFailed) rather than hang waiting for data that no longer
// exists. The commit-delay fault widens the commit/eviction race window
// enough to hit it deterministically.
func TestChaosPullEvictionRegression(t *testing.T) {
	pipe, expect := buildWordCount(8, 300)
	cl := newTestCluster(t, 6, 2, trace.RateNone)
	tracer := obs.New()

	plan := &chaos.Plan{Name: "pull-evict", Rules: []chaos.Rule{
		{ID: "slow-commits", Trigger: chaos.Trigger{Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
			Fault: chaos.Fault{Op: chaos.OpCommitDelay, Stage: chaos.Any, Delay: chaos.Duration(25 * time.Millisecond)}},
		{Trigger: func() chaos.Trigger {
			tr := chaos.On("push_committed")
			tr.Count = 1
			return tr
		}(), Fault: chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any}},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := chaos.NewEngine(plan, cl)
	eng.Attach(tracer)
	defer eng.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, pipe.Graph(), Config{
		PullBoundaries: true,
		Tracer:         tracer,
		Chaos:          eng,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("job hung after pull-mode eviction")
	}
	checkWordCount(t, res, expect)

	eng.Stop()
	if len(eng.Injections()) == 0 {
		t.Fatal("no faults fired")
	}
	relaunched := false
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.TaskRelaunched && strings.Contains(ev.Note, "pull_failed") {
			relaunched = true
			break
		}
	}
	if !relaunched {
		t.Error("expected a pull_failed relaunch after evicting a committed pull-mode source")
	}
	parents := make(map[int][]int, len(res.Plan.Stages))
	for _, ps := range res.Plan.Stages {
		parents[ps.ID] = ps.Parents
	}
	if report := chaos.Check(tracer.Events(), parents); !report.OK() {
		t.Errorf("invariants: %s", report)
	}
}

// TestEventQueueOverflow proves a full manager event queue fails loudly:
// the drop is counted and the overflow channel carries an abort error,
// instead of the listener silently blocking or the event vanishing.
func TestEventQueueOverflow(t *testing.T) {
	cl := newTestCluster(t, 2, 1, trace.RateNone)
	met := &metrics.Job{}
	m := newManager(cl, ManagerConfig{Metrics: met})
	m.events = make(chan event, 1)

	// Nobody drains m.events, so the first post fills the queue and the
	// next two overflow.
	for i := 0; i < 3; i++ {
		m.ContainerEvicted(&cluster.Container{ID: "t0"})
	}
	select {
	case err := <-m.overflow:
		if !strings.Contains(err.Error(), "event queue full") {
			t.Errorf("overflow error = %v", err)
		}
	default:
		t.Fatal("no overflow error reported")
	}
	if n := met.Counter("event_queue_overflow").Load(); n != 2 {
		t.Errorf("event_queue_overflow = %d, want 2", n)
	}
}

// TestFailureThresholdAborts tightens MaxTaskFailures and makes every
// transient->reserved dial fail: the job must abort with a JobAborted
// event rather than retrying forever.
func TestFailureThresholdAborts(t *testing.T) {
	pipe, _ := buildWordCount(4, 50)
	cl := newTestCluster(t, 4, 2, trace.RateNone)
	cl.Net().InjectFault(simnet.LinkFault{From: "t", To: "r", FailDial: true})
	tracer := obs.New()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := Run(ctx, cl, pipe.Graph(), Config{
		MaxTaskFailures: 2,
		Tracer:          tracer,
	})
	if err == nil {
		t.Fatal("expected the failure threshold to abort the job")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Errorf("abort error = %v", err)
	}
	aborted := false
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.JobAborted {
			aborted = true
			break
		}
	}
	if !aborted {
		t.Error("no JobAborted event emitted on threshold abort")
	}
}
