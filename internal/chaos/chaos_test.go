package chaos_test

import (
	"strings"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/obs"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	src := `{
	  "name": "sample",
	  "rules": [
	    {"id": "first-push", "trigger": {"on": "push_started", "stage": 0, "count": 1},
	     "fault": {"op": "evict", "target": "@event"}},
	    {"trigger": {"after": "first-push", "delay": "200ms"},
	     "fault": {"op": "storm", "count": 3}},
	    {"trigger": {"on": "push_committed", "stage": 1, "fraction": 0.5},
	     "fault": {"op": "link", "from": "t", "to": "r", "extra_latency": "5ms", "window": "80ms"}}
	  ]
	}`
	p, err := chaos.Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("got %d rules", len(p.Rules))
	}
	// Omitted trigger fields must mean "any", not stage/frag/task 0.
	r0 := p.Rules[0].Trigger
	if r0.Stage != 0 || r0.Frag != chaos.Any || r0.Task != chaos.Any {
		t.Errorf("rule 0 trigger = %+v, want stage 0, frag/task Any", r0)
	}
	if p.Rules[1].ID != "rule1" {
		t.Errorf("auto id = %q, want rule1", p.Rules[1].ID)
	}
	if d := p.Rules[1].Trigger.Delay.D(); d != 200*time.Millisecond {
		t.Errorf("delay = %v", d)
	}
	if got := p.Rules[2].Fault.ExtraLatency.D(); got != 5*time.Millisecond {
		t.Errorf("extra latency = %v", got)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []string{
		`{"rules": [{"trigger": {"on": "no_such_kind"}, "fault": {"op": "evict"}}]}`,
		`{"rules": [{"trigger": {}, "fault": {"op": "frobnicate"}}]}`,
		`{"rules": [{"trigger": {"after": "ghost"}, "fault": {"op": "evict"}}]}`,
		`{"rules": [{"id": "a", "trigger": {}, "fault": {"op": "evict"}},
		            {"id": "a", "trigger": {}, "fault": {"op": "evict"}}]}`,
		`{"rules": [{"trigger": {"on": "push_committed", "fraction": 0.5}, "fault": {"op": "evict"}}]}`,
		`{"rules": [{"trigger": {}, "fault": {"op": "commit-delay"}}]}`,
		`{"rules": [{"trigger": {}, "fault": {"op": "link"}}]}`,
	}
	for i, src := range bad {
		if _, err := chaos.Parse([]byte(src)); err == nil {
			t.Errorf("case %d: bad plan accepted", i)
		}
	}
}

// waitInjections polls until the engine applied n faults (injection is
// asynchronous: tap -> injector goroutine).
func waitInjections(t *testing.T, e *chaos.Engine, n int) []chaos.Injection {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		inj := e.Injections()
		if len(inj) >= n {
			return inj
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d injections, have %v", n, inj)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTriggerMatching drives an engine with synthetic events (no cluster
// needed: commit faults only touch engine state) and checks counting,
// field filters, and After-chaining.
func TestTriggerMatching(t *testing.T) {
	plan := &chaos.Plan{Rules: []chaos.Rule{
		{ID: "third-push", Trigger: func() chaos.Trigger {
			tr := chaos.On("push_started")
			tr.Stage = 2
			tr.Count = 3
			return tr
		}(), Fault: chaos.Fault{Op: chaos.OpCommitDelay, Stage: chaos.Any, Delay: chaos.Duration(time.Millisecond)}},
		{ID: "chained", Trigger: chaos.Trigger{After: "third-push", Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
			Fault: chaos.Fault{Op: chaos.OpCommitDup, Stage: chaos.Any, Count: 2}},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	tracer := obs.New()
	e := chaos.NewEngine(plan, nil)
	e.Attach(tracer)
	defer e.Stop()

	buf := tracer.Buf(nil, 0)
	// Wrong stage, then two matches: nothing fires yet.
	buf.Emit(obs.Event{Kind: obs.PushStarted, Stage: 1, Frag: 0, Task: 0})
	buf.Emit(obs.Event{Kind: obs.PushStarted, Stage: 2, Frag: 0, Task: 0})
	buf.Emit(obs.Event{Kind: obs.PushStarted, Stage: 2, Frag: 0, Task: 1})
	time.Sleep(10 * time.Millisecond)
	if got := e.Injections(); len(got) != 0 {
		t.Fatalf("fired early: %v", got)
	}
	// Third stage-2 match fires the rule and its chained dependent.
	buf.Emit(obs.Event{Kind: obs.PushStarted, Stage: 2, Frag: 0, Task: 2})
	inj := waitInjections(t, e, 2)
	if inj[0].Rule != "third-push" || inj[1].Rule != "chained" {
		t.Errorf("injections = %v", inj)
	}

	// Both commit faults are now installed: a relay on any stage sees
	// the delay and 2 duplicates.
	delay, dups := e.CommitRelay(1, 5, 0, 0, 0, 0)
	if delay != time.Millisecond || dups != 2 {
		t.Errorf("CommitRelay = (%v, %d), want (1ms, 2)", delay, dups)
	}

	// Injected faults surface as first-class obs events.
	count := 0
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.ChaosInjected {
			count++
		}
	}
	if count != 2 {
		t.Errorf("got %d ChaosInjected events, want 2", count)
	}
}

func TestFractionTrigger(t *testing.T) {
	tr := chaos.On("push_committed")
	tr.Stage = 1
	tr.Fraction = 0.5
	plan := &chaos.Plan{Rules: []chaos.Rule{{ID: "half",
		Trigger: tr, Fault: chaos.Fault{Op: chaos.OpCommitDup, Stage: chaos.Any}}}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	tracer := obs.New()
	e := chaos.NewEngine(plan, nil)
	e.Attach(tracer)
	defer e.Stop()

	buf := tracer.Buf(nil, 0)
	for task := 0; task < 4; task++ {
		buf.Emit(obs.Event{Kind: obs.TaskLaunched, Stage: 1, Frag: 0, Task: task})
	}
	buf.Emit(obs.Event{Kind: obs.PushCommitted, Stage: 1, Frag: 0, Task: 0})
	time.Sleep(10 * time.Millisecond)
	if got := e.Injections(); len(got) != 0 {
		t.Fatalf("fired at 1/4: %v", got)
	}
	buf.Emit(obs.Event{Kind: obs.PushCommitted, Stage: 1, Frag: 0, Task: 1})
	waitInjections(t, e, 1)
}

// Synthetic event streams for the checker. A two-stage chain: stage 1
// depends on stage 0.
var chainParents = map[int][]int{0: nil, 1: {0}}

func cleanStream() []obs.Event {
	return []obs.Event{
		{Kind: obs.StageScheduled, Stage: 0},
		{Kind: obs.TaskLaunched, Stage: 0, Frag: 0, Task: 0, Exec: "t1"},
		{Kind: obs.PushStarted, Stage: 0, Frag: 0, Task: 0, Exec: "t1"},
		{Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 0, Exec: "t1"},
		{Kind: obs.StageComplete, Stage: 0},
		{Kind: obs.StageScheduled, Stage: 1},
		{Kind: obs.PushCommitted, Stage: 1, Frag: 0, Task: 0, Exec: "t2"},
		{Kind: obs.StageComplete, Stage: 1},
	}
}

func TestCheckerCleanRun(t *testing.T) {
	r := chaos.Check(cleanStream(), chainParents)
	if !r.OK() {
		t.Fatalf("clean stream flagged: %s", r)
	}
	if r.Commits != 2 {
		t.Errorf("commits = %d", r.Commits)
	}
}

// TestCheckerCatchesBrokenSchedules feeds intentionally broken toy
// schedules and proves the checker can fail.
func TestCheckerCatchesBrokenSchedules(t *testing.T) {
	cases := []struct {
		name      string
		events    []obs.Event
		invariant string
	}{
		{
			name: "double-commit",
			events: []obs.Event{
				{Kind: obs.StageScheduled, Stage: 0},
				{Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 3},
				{Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 3},
			},
			invariant: chaos.InvExactlyOnce,
		},
		{
			name: "parent-relaunched-after-transient-eviction",
			events: []obs.Event{
				{Kind: obs.StageScheduled, Stage: 0},
				{Kind: obs.StageComplete, Stage: 0},
				{Kind: obs.StageScheduled, Stage: 1},
				{Kind: obs.ContainerEvicted, Exec: "t3"},
				// A transient eviction must never reschedule the
				// completed parent stage (§3.2.5).
				{Kind: obs.StageScheduled, Stage: 0},
			},
			invariant: chaos.InvNoParentRelaunch,
		},
		{
			name: "restart-without-cause",
			events: []obs.Event{
				{Kind: obs.StageScheduled, Stage: 0},
				{Kind: obs.StageScheduled, Stage: 0},
			},
			invariant: chaos.InvRestartCause,
		},
		{
			name: "child-scheduled-before-parent",
			events: []obs.Event{
				{Kind: obs.StageScheduled, Stage: 1},
			},
			invariant: chaos.InvTopoOrder,
		},
		{
			// A failed pull can only revert a skip; it never excuses a
			// second commit of a task whose output was pushed.
			name: "recommit-after-pull-failed",
			events: []obs.Event{
				{Kind: obs.StageScheduled, Stage: 0},
				{Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 0},
				{Kind: obs.TaskRelaunched, Stage: 0, Frag: 0, Task: 0, Note: "pull_failed"},
				{Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 0},
				{Kind: obs.StageComplete, Stage: 0},
			},
			invariant: chaos.InvExactlyOnce,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := chaos.Check(tc.events, chainParents)
			if r.OK() {
				t.Fatalf("broken schedule passed")
			}
			found := false
			for _, v := range r.Violations {
				if v.Invariant == tc.invariant {
					found = true
				}
			}
			if !found {
				t.Fatalf("want %s violation, got %s", tc.invariant, r)
			}
		})
	}
}

func TestCheckerAllowsLegitimateRestarts(t *testing.T) {
	// A reserved-container failure legitimizes rescheduling completed
	// stages, in topological order.
	events := []obs.Event{
		{Kind: obs.StageScheduled, Stage: 0},
		{Kind: obs.StageComplete, Stage: 0},
		{Kind: obs.StageScheduled, Stage: 1},
		{Kind: obs.ContainerFailed, Exec: "r0"},
		{Kind: obs.StageScheduled, Stage: 0},
		{Kind: obs.StageComplete, Stage: 0},
		{Kind: obs.StageScheduled, Stage: 1},
		{Kind: obs.StageComplete, Stage: 1},
	}
	if r := chaos.Check(events, chainParents); !r.OK() {
		t.Fatalf("legitimate recovery flagged: %s", r)
	}

	// A receiver failure (reserved task failing without its container
	// dying) also legitimizes a restart of the running stage.
	events = []obs.Event{
		{Kind: obs.StageScheduled, Stage: 0},
		{Kind: obs.TaskFailed, Stage: 0, Frag: obs.ReservedFrag, Task: 0, Note: "boom"},
		{Kind: obs.StageScheduled, Stage: 0},
		{Kind: obs.StageComplete, Stage: 0},
	}
	if r := chaos.Check(events, chainParents); !r.OK() {
		t.Fatalf("receiver-failure restart flagged: %s", r)
	}

	// A skipped task whose chunk could not be pulled runs after all: the
	// skip was no commit, so its one pushed commit is the first.
	events = []obs.Event{
		{Kind: obs.StageScheduled, Stage: 0},
		{Kind: obs.TaskSkipped, Stage: 0, Frag: 0, Task: 0},
		{Kind: obs.TaskRelaunched, Stage: 0, Frag: 0, Task: 0, Note: "pull_failed"},
		{Kind: obs.PushCommitted, Stage: 0, Frag: 0, Task: 0},
		{Kind: obs.StageComplete, Stage: 0},
	}
	if r := chaos.Check(events, chainParents); !r.OK() {
		t.Fatalf("reverted skip flagged: %s", r)
	}
}

func TestCanonicalAndDigest(t *testing.T) {
	a := map[dag.VertexID][]data.Record{
		2: {data.KV("b", int64(2)), data.KV("a", int64(1))},
	}
	b := map[dag.VertexID][]data.Record{
		2: {data.KV("a", int64(1)), data.KV("b", int64(2))},
	}
	ca, cb := chaos.Canonical(a), chaos.Canonical(b)
	if string(ca) != string(cb) {
		t.Fatalf("canonical not order-independent:\n%q\n%q", ca, cb)
	}

	clean := chaos.Check(cleanStream(), chainParents)
	if clean.Digest(ca) != clean.Digest(cb) {
		t.Error("digest differs for equal canonical outputs")
	}
	var mismatched chaos.Report
	mismatched.CompareOutput(ca, []byte("different"))
	if mismatched.OK() {
		t.Fatal("output mismatch not flagged")
	}
	if !strings.Contains(mismatched.Violations[0].String(), chaos.InvOutput) {
		t.Errorf("violation = %v", mismatched.Violations[0])
	}
	if clean.Digest(ca) == mismatched.Digest(ca) {
		t.Error("digest ignores violations")
	}
}
