package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/engines/sparklike"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

// The chaos scenario matrix: scripted worst-moment fault schedules over
// small MR and MLR jobs on an otherwise eviction-free cluster (RateNone:
// every fault comes from the plan). Each run ends with the invariant
// checker over the merged trace; MR runs also compare output
// byte-for-byte against a fault-free golden run.

const scenarioSeed = 77

func scenarioCluster(transient, reserved int) (*cluster.Cluster, error) {
	cl, err := cluster.New(cluster.Config{
		Transient:   transient,
		Reserved:    reserved,
		Slots:       4,
		Lifetimes:   trace.Lifetimes(trace.RateNone),
		Scale:       vtime.NewScale(50 * time.Millisecond),
		MinLifetime: 30 * time.Millisecond,
		Seed:        scenarioSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return cl, nil
}

func newScenarioCluster(t testing.TB, transient, reserved int) *cluster.Cluster {
	t.Helper()
	cl, err := scenarioCluster(transient, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mrConfig() workloads.MRConfig {
	cfg := workloads.DefaultMRConfig()
	cfg.Partitions, cfg.LinesPerPart = 8, 400
	return cfg
}

func mlrConfig() workloads.MLRConfig {
	return workloads.MLRConfig{
		Partitions: 8, SamplesPerPart: 30, Features: 32, Classes: 4,
		NonZeros: 8, Iterations: 3, LearningRate: 0.5, Seed: 3,
	}
}

type padoRun struct {
	report     *chaos.Report
	canonical  []byte
	outputs    map[dag.VertexID][]data.Record
	injections []chaos.Injection
	events     []obs.Event
	snap       metrics.Snapshot
}

// runPado executes pipe on a fresh scenario cluster under plan (nil =
// fault-free) and replays the trace through the invariant checker.
func runPado(t testing.TB, pipe *dataflow.Pipeline, plan *chaos.Plan, mutate func(*runtime.Config), transient, reserved int) padoRun {
	t.Helper()
	pr, err := tryPado(pipe, plan, mutate, transient, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// tryPado is runPado returning its failure instead, for a caller off the
// test's goroutine (a synctest bubble), where t.Fatal must not be called.
func tryPado(pipe *dataflow.Pipeline, plan *chaos.Plan, mutate func(*runtime.Config), transient, reserved int) (padoRun, error) {
	cl, err := scenarioCluster(transient, reserved)
	if err != nil {
		return padoRun{}, err
	}
	tracer := obs.New()
	cfg := runtime.Config{Tracer: tracer}
	var eng *chaos.Engine
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return padoRun{}, fmt.Errorf("plan: %w", err)
		}
		eng = chaos.NewEngine(plan, cl)
		eng.Attach(tracer)
		defer eng.Stop()
		cfg.Chaos = eng
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := runtime.Run(ctx, cl, pipe.Graph(), cfg)
	if err != nil {
		return padoRun{}, fmt.Errorf("run: %w", err)
	}
	if res.Metrics.TimedOut {
		return padoRun{}, errors.New("timed out")
	}
	var pr padoRun
	if eng != nil {
		eng.Stop()
		pr.injections = eng.Injections()
	}
	parents := make(map[int][]int, len(res.Plan.Stages))
	for _, ps := range res.Plan.Stages {
		parents[ps.ID] = ps.Parents
	}
	pr.events = tracer.Events()
	pr.report = chaos.Check(pr.events, parents)
	pr.canonical = chaos.Canonical(res.Outputs)
	pr.outputs = res.Outputs
	pr.snap = res.Metrics
	return pr, nil
}

// goldenMR caches the fault-free MR canonical output (int64 sums are
// arrival-order independent, so the bytes are stable across runs).
var (
	goldenMROnce sync.Once
	goldenMR     []byte
)

func mrGolden(t testing.TB) []byte {
	goldenMROnce.Do(func() {
		pr := runPado(t, workloads.MR(mrConfig()), nil, nil, 6, 2)
		if !pr.report.OK() {
			t.Fatalf("fault-free run flagged: %s", pr.report)
		}
		goldenMR = pr.canonical
	})
	if goldenMR == nil {
		t.Fatal("golden MR run failed earlier")
	}
	return goldenMR
}

// trig builds a wildcard trigger on kind with optional tweaks applied.
func trig(kind string, mut func(*chaos.Trigger)) chaos.Trigger {
	tr := chaos.On(kind)
	if mut != nil {
		mut(&tr)
	}
	return tr
}

func ms(d int) chaos.Duration { return chaos.Duration(time.Duration(d) * time.Millisecond) }

// mrScenarios is the MR half of the matrix. Every schedule must leave
// all invariants intact and the output equal to the golden run.
var mrScenarios = []struct {
	name   string
	rules  []chaos.Rule
	mutate func(*runtime.Config)
}{
	{
		name: "evict-on-first-push", // the §3.2.4 escape race, earliest window
		rules: []chaos.Rule{{
			Trigger: trig("push_started", func(t *chaos.Trigger) { t.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any},
		}},
	},
	{
		name: "evict-on-third-push",
		rules: []chaos.Rule{{
			Trigger: trig("push_started", func(t *chaos.Trigger) { t.Count = 3 }),
			Fault:   chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any},
		}},
	},
	{
		name: "commit-race-evict", // eviction lands right as the commit is acknowledged
		rules: []chaos.Rule{{
			Trigger: trig("push_committed", func(t *chaos.Trigger) { t.Count = 1 }),
			Fault:   chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any},
		}},
	},
	{
		name: "commit-delay-then-evict", // widen the commit/eviction race window
		rules: []chaos.Rule{
			{ID: "slow-commits", Trigger: chaos.Trigger{Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
				Fault: chaos.Fault{Op: chaos.OpCommitDelay, Stage: chaos.Any, Delay: ms(20)}},
			{Trigger: trig("push_started", func(t *chaos.Trigger) { t.Count = 2 }),
				Fault: chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any}},
		},
	},
	{
		name: "commit-duplication", // receivers must dedup duplicated relays
		rules: []chaos.Rule{{
			Trigger: chaos.Trigger{Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
			Fault:   chaos.Fault{Op: chaos.OpCommitDup, Stage: chaos.Any, Count: 2},
		}},
	},
	{
		name: "storm-at-stage-start", // spot-price spike as the stage schedules
		rules: []chaos.Rule{{
			Trigger: trig("stage_scheduled", func(t *chaos.Trigger) { t.Stage = 0 }),
			Fault:   chaos.Fault{Op: chaos.OpStorm, Count: 4, Stage: chaos.Any},
		}},
	},
	{
		name: "double-storm", // second wave while the first wave's relaunches run
		rules: []chaos.Rule{
			{ID: "wave1", Trigger: trig("push_started", nil),
				Fault: chaos.Fault{Op: chaos.OpStorm, Count: 3, Stage: chaos.Any}},
			{Trigger: chaos.Trigger{After: "wave1", Delay: ms(40), Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
				Fault: chaos.Fault{Op: chaos.OpStorm, Count: 3, Stage: chaos.Any}},
		},
	},
	{
		name: "relaunch-cascade", // evict again the moment the first relaunch happens
		rules: []chaos.Rule{
			{ID: "first", Trigger: trig("push_started", nil),
				Fault: chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any}},
			{Trigger: trig("task_relaunched", func(t *chaos.Trigger) { t.After = "first" }),
				Fault: chaos.Fault{Op: chaos.OpEvict, Stage: chaos.Any}},
		},
	},
	{
		name: "evict-on-receiver-ready", // kill a worker just as receivers open
		rules: []chaos.Rule{{
			Trigger: trig("receiver_ready", nil),
			Fault:   chaos.Fault{Op: chaos.OpEvict, Stage: chaos.Any},
		}},
	},
	{
		name: "fraction-storm", // storm once half the stage's tasks committed
		rules: []chaos.Rule{{
			Trigger: trig("push_committed", func(t *chaos.Trigger) { t.Stage = 0; t.Fraction = 0.5 }),
			Fault:   chaos.Fault{Op: chaos.OpStorm, Count: 3, Stage: chaos.Any},
		}},
	},
	{
		name: "link-delay", // degrade every transient->reserved link
		rules: []chaos.Rule{{
			Trigger: chaos.Trigger{Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
			Fault: chaos.Fault{Op: chaos.OpLink, From: "t", To: "r",
				ExtraLatency: ms(5), Window: ms(100), Stage: chaos.Any},
		}},
	},
	{
		name: "link-drop-window", // drop every 3rd chunk during the push wave
		rules: []chaos.Rule{{
			Trigger: trig("stage_scheduled", func(t *chaos.Trigger) { t.Stage = 0 }),
			Fault: chaos.Fault{Op: chaos.OpLink, From: "t", To: "r",
				DropEvery: 3, Window: ms(80), Stage: chaos.Any},
		}},
	},
	{
		name: "dial-fail-window", // pushes cannot even connect for a while
		rules: []chaos.Rule{{
			Trigger: trig("push_started", nil),
			Fault: chaos.Fault{Op: chaos.OpDialFail, From: "t", To: "r",
				Window: ms(30), Stage: chaos.Any},
		}},
		mutate: func(cfg *runtime.Config) { cfg.MaxTaskFailures = 1000 },
	},
}

func TestChaosMatrixMR(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in short mode")
	}
	golden := mrGolden(t)
	for _, sc := range mrScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			plan := &chaos.Plan{Name: sc.name, Rules: sc.rules}
			pr := runPado(t, workloads.MR(mrConfig()), plan, sc.mutate, 6, 2)
			if len(pr.injections) == 0 {
				t.Fatal("no faults fired; scenario is vacuous")
			}
			if !pr.report.OK() {
				t.Errorf("invariants: %s", pr.report)
			}
			pr.report.CompareOutput(golden, pr.canonical)
			if !pr.report.OK() {
				t.Errorf("output diverged from golden run: %s", pr.report)
			}
		})
	}
}

// mlrScenarios exercise §3.2.6 recovery: multi-stage iterative job,
// reserved containers failing mid-job and mid-recovery. MLR reduces
// floats (arrival-order dependent bits), so correctness is checked
// against the reference model within 1e-9 instead of byte equality.
var mlrScenarios = []struct {
	name  string
	rules []chaos.Rule
}{
	{
		name: "reserved-fail-mid-job",
		rules: []chaos.Rule{{
			Trigger: trig("stage_complete", func(t *chaos.Trigger) { t.Count = 2 }),
			Fault:   chaos.Fault{Op: chaos.OpFailReserved, Stage: chaos.Any},
		}},
	},
	{
		name: "reserved-fail-during-recovery", // second failure while ancestors replay
		rules: []chaos.Rule{
			{ID: "first-loss", Trigger: trig("stage_complete", func(t *chaos.Trigger) { t.Count = 3 }),
				Fault: chaos.Fault{Op: chaos.OpFailReserved, Stage: chaos.Any}},
			{Trigger: trig("stage_scheduled", func(t *chaos.Trigger) { t.After = "first-loss"; t.Delay = ms(5) }),
				Fault: chaos.Fault{Op: chaos.OpFailReserved, Stage: chaos.Any}},
		},
	},
	{
		name: "evict-during-recovery-replay", // transient dies while recovery recomputes ancestors
		rules: []chaos.Rule{
			{ID: "loss", Trigger: trig("stage_complete", func(t *chaos.Trigger) { t.Count = 3 }),
				Fault: chaos.Fault{Op: chaos.OpFailReserved, Stage: chaos.Any}},
			{Trigger: trig("task_launched", func(t *chaos.Trigger) { t.After = "loss"; t.ExecPrefix = "t" }),
				Fault: chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any}},
		},
	},
}

func TestChaosMatrixMLR(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in short mode")
	}
	cfg := mlrConfig()
	want := workloads.MLRReference(cfg)
	for _, sc := range mlrScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			plan := &chaos.Plan{Name: sc.name, Rules: sc.rules}
			pr := runPado(t, workloads.MLR(cfg), plan, nil, 6, 3)
			if len(pr.injections) == 0 {
				t.Fatal("no faults fired; scenario is vacuous")
			}
			if !pr.report.OK() {
				t.Errorf("invariants: %s", pr.report)
			}
			var model []float64
			for _, recs := range pr.outputs {
				if len(recs) != 1 {
					t.Fatalf("got %d model records", len(recs))
				}
				model = recs[0].Value.([]float64)
			}
			for i := range model {
				if math.Abs(model[i]-want[i]) > 1e-9 {
					t.Fatalf("model[%d] = %g, want %g", i, model[i], want[i])
				}
			}
		})
	}
}

// TestChaosHomeScenarios runs the fault schedules of the home reserved
// containers (DESIGN.md §15), loaded from examples/chaos/, on MLR over 6
// transient and 3 reserved containers, where every gradient fan-in is
// sharded and every model replicated. Reserved containers r1-r3 start
// first, so transient ordinal i is container t(4+i), homed at r(1+i%3),
// and stage 1's root receiver runs on r2.
//   - home-shard-evict: t4's cover reaches its home shard on r1 and the
//     master commits it, but the commit relays are slowed, and t4 is
//     evicted before the commit reaches the shard. The shard must still
//     merge the cover exactly once, whatever t4's relaunched tasks push
//     to their own homes.
//   - home-fail: r3, the home of t6 and t9 and a shard of stage 1 but not
//     its root, fails while stage 1 pushes. The stage restarts (§3.2.6);
//     stage 0, whose model r3 only held a copy of, is not relaunched.
//
// chaos.Check must hold and the model must match the reference.
func TestChaosHomeScenarios(t *testing.T) {
	cfg := mlrConfig()
	want := workloads.MLRReference(cfg)
	for _, c := range []struct {
		file, target string
	}{
		{"home-shard-evict.json", "t4"},
		{"home-fail.json", "r3"},
	} {
		t.Run(c.file, func(t *testing.T) {
			plan, err := chaos.Load("../../examples/chaos/" + c.file)
			if err != nil {
				t.Fatal(err)
			}
			pr := runPado(t, workloads.MLR(cfg), plan, nil, 6, 3)
			if last := len(pr.injections) - 1; last < 0 || pr.injections[last].Target != c.target {
				t.Fatalf("injections %+v, want the last on %s", pr.injections, c.target)
			}
			if !pr.report.OK() {
				t.Errorf("invariants: %s", pr.report)
			}
			var up []string
			root, scheduled := "", map[int]int{}
			for _, ev := range pr.events {
				switch {
				case ev.Kind == obs.ContainerUp && len(up) < 4:
					up = append(up, ev.Exec)
				case ev.Kind == obs.TaskLaunched && ev.Stage == 1 && ev.Frag == obs.ReservedFrag && root == "":
					root = ev.Exec
				case ev.Kind == obs.StageScheduled:
					scheduled[ev.Stage]++
				}
			}
			if got := fmt.Sprint(up); got != "[r1 r2 r3 t4]" {
				t.Errorf("containers came up as %s, want r1-r3 first and then t4", got)
			}
			if root != "r2" {
				t.Errorf("stage 1's root receiver ran on %q, want r2", root)
			}
			if c.target == "r3" && (scheduled[1] != 2 || scheduled[0] != 1) {
				t.Errorf("stage 0 scheduled %d times and stage 1 %d, want 1 and 2", scheduled[0], scheduled[1])
			}
			var model []float64
			for _, recs := range pr.outputs {
				model = recs[0].Value.([]float64)
			}
			for i := range model {
				if math.Abs(model[i]-want[i]) > 1e-9 {
					t.Fatalf("model[%d] = %g, want %g", i, model[i], want[i])
				}
			}
		})
	}
}

// TestChaosMatrixSparklike runs storm schedules against both baseline
// engines: the protocol checker is Pado-specific, but triggers fire off
// the same obs kinds and the output must match a fault-free golden run.
func TestChaosMatrixSparklike(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in short mode")
	}
	want := workloads.MRReference(mrConfig())
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{
		{name: "spark-storm", checkpoint: false},
		{name: "spark-checkpoint-storm", checkpoint: true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plan := &chaos.Plan{Name: tc.name, Rules: []chaos.Rule{{
				Trigger: trig("stage_scheduled", func(tr *chaos.Trigger) { tr.Count = 1 }),
				Fault:   chaos.Fault{Op: chaos.OpStorm, Count: 3, Stage: chaos.Any},
			}}}
			if err := plan.Validate(); err != nil {
				t.Fatal(err)
			}
			cl := newScenarioCluster(t, 6, 2)
			tracer := obs.New()
			eng := chaos.NewEngine(plan, cl)
			eng.Attach(tracer)
			defer eng.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			res, err := sparklike.Run(ctx, cl, workloads.MR(mrConfig()).Graph(), sparklike.Config{
				Checkpoint: tc.checkpoint, Tracer: tracer,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Metrics.TimedOut {
				t.Fatal("timed out")
			}
			eng.Stop()
			if len(eng.Injections()) == 0 {
				t.Fatal("no faults fired; scenario is vacuous")
			}
			var recs []data.Record
			for _, out := range res.Outputs {
				recs = out
			}
			if len(recs) != len(want) {
				t.Fatalf("got %d keys, want %d", len(recs), len(want))
			}
			for _, r := range recs {
				if want[r.Key.(string)] != r.Value.(int64) {
					t.Errorf("key %v: got %v want %v", r.Key, r.Value, want[r.Key.(string)])
				}
			}
		})
	}
}

// TestChaosDeterminism: same seed + same plan => identical invariant
// digest across two runs (the CI determinism gate).
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism skipped in short mode")
	}
	newPlan := func() *chaos.Plan {
		return &chaos.Plan{Name: "determinism", Rules: []chaos.Rule{
			{ID: "slow-commits", Trigger: chaos.Trigger{Stage: chaos.Any, Frag: chaos.Any, Task: chaos.Any},
				Fault: chaos.Fault{Op: chaos.OpCommitDelay, Stage: chaos.Any, Delay: ms(20)}},
			{Trigger: trig("push_started", func(tr *chaos.Trigger) { tr.Count = 2 }),
				Fault: chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any}},
		}}
	}
	a := runPado(t, workloads.MR(mrConfig()), newPlan(), nil, 6, 2)
	b := runPado(t, workloads.MR(mrConfig()), newPlan(), nil, 6, 2)
	if !a.report.OK() || !b.report.OK() {
		t.Fatalf("invariants: a=%s b=%s", a.report, b.report)
	}
	da, db := a.report.Digest(a.canonical), b.report.Digest(b.canonical)
	if da != db {
		t.Fatalf("digest mismatch across identical runs:\n%s\n%s", da, db)
	}
}
