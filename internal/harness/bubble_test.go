//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package harness

import (
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"testing"
	"testing/synctest"

	"pado/internal/trace"
)

// Inside a synctest bubble package time is fake and advances only when
// every goroutine of the simulated cluster is blocked, so a run costs its
// CPU time and its JCT is modelled time, free of host load. synctest.Run
// returns only once each goroutine started inside has exited, so every run
// is a leak check too.
//
// On one P, two same-seed runs of a cell without evictions must agree on
// the output digest, on every byte counter, and on the JCT within 1 %. The
// cells are MLR on every engine, and MR on both Spark-like engines, whose
// shuffle carries map-side combined accumulators.
// Spark-checkpoint does. Spark does but for its JCT, which is logged. Pado
// does not yet: its partial aggregation folds together the task outputs
// that happen to be waiting when a push leaves, and goroutine order decides
// which those are, so the number of pushes moves by a few and gradients are
// summed in arrival order. The cause is inside internal/runtime; until it
// is fixed (ROADMAP item 1 (CombineFn determinism)) the Pado half skips,
// saying what differed.
//
// go.mod says go 1.22, which selects the old timer channels the bubble
// cannot fake: hence the asynctimerchan line above.
func TestBubbleSameSeedRunsAgree(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	type cell struct {
		name string
		eng  Engine
		w    Workload
	}
	var cells []cell
	for _, eng := range AllEngines {
		cells = append(cells, cell{eng.String(), eng, WorkloadMLR})
	}
	for _, eng := range []Engine{EngineSpark, EngineSparkCheckpoint} {
		cells = append(cells, cell{eng.String() + "-MR", eng, WorkloadMR})
	}
	for _, c := range cells {
		eng := c.eng
		t.Run(c.name, func(t *testing.T) {
			p := tinyParams()
			p.Engine = eng
			p.Workload = c.w
			p.Rate = trace.RateNone
			var runs [2]Outcome
			var errs [2]error
			for i := range runs {
				synctest.Run(func() { runs[i], errs[i] = Run(p) })
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				if runs[i].TimedOut {
					t.Fatalf("run %d timed out", i)
				}
			}
			a, b := runs[0], runs[1]
			am, bm := a.Metrics, b.Metrics
			t.Logf("jct %.4f / %.4f paper-min, pushed %d / %d B, fetched %d / %d B, digest %.8s / %.8s",
				a.JCTMinutes, b.JCTMinutes, am.BytesPushed, bm.BytesPushed, am.BytesFetched, bm.BytesFetched, a.Digest, b.Digest)

			var diffs []string
			if a.Digest != b.Digest {
				diffs = append(diffs, fmt.Sprintf("digests %.8s and %.8s", a.Digest, b.Digest))
			}
			if am.OriginalTasks != bm.OriginalTasks || am.BytesPushed != bm.BytesPushed ||
				am.BytesFetched != bm.BytesFetched || am.BytesCheckpointed != bm.BytesCheckpointed {
				diffs = append(diffs, fmt.Sprintf("tasks/pushed/fetched/checkpointed %d/%d/%d/%d and %d/%d/%d/%d",
					am.OriginalTasks, am.BytesPushed, am.BytesFetched, am.BytesCheckpointed,
					bm.OriginalTasks, bm.BytesPushed, bm.BytesFetched, bm.BytesCheckpointed))
			}
			// Spark's JCT moves by up to a fifth between same-seed runs of this
			// cell (142-171 paper-min) for a reason not yet found: logged only.
			d := math.Abs(a.JCTMinutes-b.JCTMinutes) / math.Max(a.JCTMinutes, b.JCTMinutes)
			if eng != EngineSpark && d > 0.01 {
				diffs = append(diffs, fmt.Sprintf("JCT %.4f and %.4f paper-min, %.1f %% apart", a.JCTMinutes, b.JCTMinutes, d*100))
			}
			if len(diffs) == 0 {
				return
			}
			if eng == EnginePado {
				t.Skipf("seed %d: same-seed Pado runs are not yet repeatable (ROADMAP item 1 (CombineFn determinism)): %s", p.Seed, strings.Join(diffs, "; "))
			}
			t.Errorf("seed %d: %s", p.Seed, strings.Join(diffs, "; "))
		})
	}
}
