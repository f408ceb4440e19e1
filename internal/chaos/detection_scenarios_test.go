package chaos_test

import (
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/testutil"
	"pado/internal/workloads"
)

// Detection scenarios exercise the failure-handling plane the chaos ops
// with no announcement path: silent kills, hangs, and gray nodes must be
// noticed by the heartbeat detector alone, within a bound, without false
// positives, and with the §3.2.5 exactly-once output intact.

// tightDetector returns detector knobs scaled for the small scenario
// jobs: declarations land within a few hundred milliseconds instead of
// the production-default 1.5s.
func tightDetector() runtime.FailureConfig {
	return runtime.FailureConfig{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      150 * time.Millisecond,
	}
}

// detectionBound is the allowed injection→declaration gap for the tight
// knobs: DeadAfter plus generous slack for detector ticks and a loaded
// test machine.
const detectionBound = 5 * time.Second

func countKind(events []obs.Event, kind obs.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func assertCounter(t *testing.T, snap metrics.Snapshot, name string) {
	t.Helper()
	if snap.Named[name] == 0 {
		t.Errorf("counter %s = 0, want > 0", name)
	}
}

// detectionScenarios: each unannounced fault kind must recover through
// the detector with output equal to the golden run.
var detectionScenarios = []struct {
	name     string
	rules    []chaos.Rule
	counters []string // asserted non-zero after the run
}{
	{
		name: "silent-kill-mid-push", // node vanishes with zero announcement
		rules: []chaos.Rule{{
			Trigger: trig("push_started", func(t *chaos.Trigger) { t.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpKillSilent, Target: "@event", Stage: chaos.Any},
		}},
		counters: []string{
			metrics.NameHeartbeatsSent,
			metrics.NameHeartbeatsMissed,
			metrics.NameSuspicionsRaised,
			metrics.NameNodesDeclaredDead,
		},
	},
	{
		name: "hang-mid-push", // node wedges: writes block, no errors, no EOF
		rules: []chaos.Rule{{
			Trigger: trig("push_started", func(t *chaos.Trigger) { t.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpHang, Target: "@event", Stage: chaos.Any},
		}},
		counters: []string{
			metrics.NameHeartbeatsSent,
			metrics.NameNodesDeclaredDead,
		},
	},
	{
		name: "gray-node", // heartbeats fine, data plane dead in both directions
		rules: []chaos.Rule{{
			// Gray the first READY RECEIVER (a reserved node): every
			// transient's pushes to it fail, so multiple reporters open
			// breakers toward it and the dest-gray rule convicts it.
			Trigger: trig("receiver_ready", func(t *chaos.Trigger) { t.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpGray, Target: "@event", Stage: chaos.Any},
		}},
		counters: []string{
			metrics.NameHeartbeatsSent,
			metrics.NameNodesDeclaredDead,
			metrics.NameBreakerOpens,
			metrics.NameRPCRetries,
		},
	},
}

func TestChaosDetectionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in short mode")
	}
	golden := mrGolden(t)
	for _, sc := range detectionScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			// These scenarios only end when the detector notices the
			// fault; if it never does, the stacks are the evidence.
			testutil.Watchdog(t, 90*time.Second)
			plan := &chaos.Plan{Name: sc.name, Rules: sc.rules}
			mutate := func(cfg *runtime.Config) {
				cfg.Failure = tightDetector()
				// Unannounced deaths surface as failed pushes on the
				// victims' peers before the declaration lands.
				cfg.MaxTaskFailures = 1000
			}
			pr := runPado(t, workloads.MR(mrConfig()), plan, mutate, 6, 2)
			if len(pr.injections) == 0 {
				t.Fatal("no faults fired; scenario is vacuous")
			}
			pr.report.Violations = append(pr.report.Violations,
				chaos.CheckDetection(pr.events, detectionBound)...)
			if !pr.report.OK() {
				t.Errorf("invariants: %s", pr.report)
			}
			pr.report.CompareOutput(golden, pr.canonical)
			if !pr.report.OK() {
				t.Errorf("output diverged from golden run: %s", pr.report)
			}
			if n := countKind(pr.events, obs.NodeDeclaredDead); n == 0 {
				t.Error("no node_declared_dead event; detector never fired")
			}
			for _, name := range sc.counters {
				assertCounter(t, pr.snap, name)
			}
		})
	}
}

// TestChaosLatencyStormNoFalsePositives: a latency-only plan — every
// transient link slowed, nothing killed — must complete with ZERO dead
// declarations. Slow is not dead; false positives restart real work.
func TestChaosLatencyStormNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in short mode")
	}
	golden := mrGolden(t)
	plan := &chaos.Plan{Name: "latency-storm-only", Rules: []chaos.Rule{{
		Trigger: chaos.Trigger{Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
		Fault: chaos.Fault{Op: chaos.OpLink, From: "t",
			ExtraLatency: ms(5), Stage: chaos.Any},
	}}}
	mutate := func(cfg *runtime.Config) { cfg.Failure = tightDetector() }
	pr := runPado(t, workloads.MR(mrConfig()), plan, mutate, 6, 2)
	if len(pr.injections) == 0 {
		t.Fatal("no faults fired; scenario is vacuous")
	}
	pr.report.Violations = append(pr.report.Violations,
		chaos.CheckDetection(pr.events, detectionBound)...)
	if !pr.report.OK() {
		t.Errorf("invariants: %s", pr.report)
	}
	pr.report.CompareOutput(golden, pr.canonical)
	if !pr.report.OK() {
		t.Errorf("output diverged from golden run: %s", pr.report)
	}
	if n := countKind(pr.events, obs.NodeDeclaredDead); n != 0 {
		t.Errorf("%d node(s) declared dead under a latency-only storm", n)
	}
	assertCounter(t, pr.snap, metrics.NameHeartbeatsSent)
}

// TestChaosDetectionDeterminism: the detector joins the CI determinism
// gate — same seed + same silent-kill plan must yield identical
// invariant digests across runs.
func TestChaosDetectionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism skipped in short mode")
	}
	newPlan := func() *chaos.Plan {
		return &chaos.Plan{Name: "detection-determinism", Rules: []chaos.Rule{{
			Trigger: trig("push_started", func(tr *chaos.Trigger) { tr.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpKillSilent, Target: "@event", Stage: chaos.Any},
		}}}
	}
	mutate := func(cfg *runtime.Config) {
		cfg.Failure = tightDetector()
		cfg.MaxTaskFailures = 1000
	}
	run := func() (*chaos.Report, []byte) {
		pr := runPado(t, workloads.MR(mrConfig()), newPlan(), mutate, 6, 2)
		pr.report.Violations = append(pr.report.Violations,
			chaos.CheckDetection(pr.events, detectionBound)...)
		return pr.report, pr.canonical
	}
	ra, ca := run()
	rb, cb := run()
	if !ra.OK() || !rb.OK() {
		t.Fatalf("invariants: a=%s b=%s", ra, rb)
	}
	da, db := ra.Digest(ca), rb.Digest(cb)
	if da != db {
		t.Fatalf("digest mismatch across identical runs:\n%s\n%s", da, db)
	}
}
