//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package chaos_test

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"testing/synctest"

	"pado/internal/chaos"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/workloads"
)

// TestBubbleChaosDetectionDeterminism: a silent kill that only the
// heartbeat detector can notice must give the same invariant digest
// on every run of one seed and plan. Each run is inside a synctest
// bubble on one P, so the detector's timeouts are modelled time and
// host load cannot move a declaration from one run to the next.
//
// go.mod says go 1.22, which selects the old timer channels the bubble
// cannot fake: hence the asynctimerchan line above.
func TestBubbleChaosDetectionDeterminism(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	plan := func() *chaos.Plan {
		return &chaos.Plan{Name: "detection-determinism", Rules: []chaos.Rule{{
			Trigger: trig("push_started", func(tr *chaos.Trigger) { tr.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpKillSilent, Target: "@event", Stage: chaos.Any},
		}}}
	}
	mutate := func(cfg *runtime.Config) {
		cfg.Failure = tightDetector()
		cfg.MaxTaskFailures = 1000
	}
	var want string
	for i := 0; i < 6; i++ {
		var digest string
		var dead int
		var err error
		synctest.Run(func() {
			var pr padoRun
			if pr, err = tryPado(workloads.MR(mrConfig()), plan(), mutate, 6, 2); err != nil {
				return
			}
			if len(pr.injections) == 0 {
				err = errors.New("no fault fired; the run is vacuous")
				return
			}
			pr.report.Violations = append(pr.report.Violations,
				chaos.CheckDetection(pr.events, detectionBound)...)
			if !pr.report.OK() {
				err = fmt.Errorf("invariants: %s", pr.report)
				return
			}
			digest = pr.report.Digest(pr.canonical)
			dead = countKind(pr.events, obs.NodeDeclaredDead)
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		t.Logf("run %d: digest %.12s, %d node(s) declared dead", i, digest, dead)
		if i == 0 {
			want = digest
		} else if digest != want {
			t.Fatalf("run %d: digest %s, run 0 gave %s", i, digest, want)
		}
	}
}
