package runtime

import (
	"errors"
	"fmt"
	"testing"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/dataflow"
)

// Control-plane scheduler benchmarks: how much work does the master do
// per event, as a function of job size? The fleet here is synthetic —
// fake taskLaunchers record launches instead of running a data plane —
// so the numbers isolate scheduleAll/assignTasks/pickExecutor and the
// per-event bookkeeping around them (reapFinished).
//
// The three benchmarks pin the control-plane raw-speed trajectory:
//
//   - BenchmarkScheduleAll: a saturated fleet with N waiting tasks and
//     zero free slots. Every real master event pays this "nothing to
//     do" pass, so it must not cost O(N).
//   - BenchmarkAssignTasks: steady-state task churn — one task failure
//     per event, which frees a slot, requeues the task, and launches a
//     replacement.
//   - BenchmarkMasterEventLoop: the same churn through the full
//     handle() path across four concurrent jobs, exercising the
//     deficit-weighted round-robin scheduler.

var errBenchTask = errors.New("bench: injected task failure")

// launchRef is one recorded launch, reduced to the event reference the
// driver needs to script follow-up events.
type launchRef struct {
	Job int
	Ref taskRef
}

// refRing is a fixed-capacity FIFO of launch records. Steady-state
// churn pops one launch and fails it, which triggers exactly one new
// launch, so the ring never grows past the fleet's slot count plus the
// initial backlog.
type refRing struct {
	buf        []launchRef
	head, tail int
}

func newRefRing(capacity int) *refRing { return &refRing{buf: make([]launchRef, capacity)} }

func (r *refRing) push(v launchRef) {
	if r.tail-r.head == len(r.buf) {
		panic("refRing overflow")
	}
	r.buf[r.tail%len(r.buf)] = v
	r.tail++
}

func (r *refRing) pop() launchRef {
	if r.head == r.tail {
		panic("refRing empty")
	}
	v := r.buf[r.head%len(r.buf)]
	r.head++
	return v
}

// benchLauncher records launches into the shared ring and ignores the
// receiver/commit surface (the synthetic plans are transient-only).
type benchLauncher struct {
	job  int
	ring *refRing
}

func (l *benchLauncher) Launch(spec taskSpec) {
	l.ring.push(launchRef{Job: l.job, Ref: taskRef{
		Job: l.job, Stage: spec.Stage, Gen: spec.Gen,
		Frag: spec.Frag, Index: spec.Index, Attempt: spec.Attempt,
	}})
}
func (l *benchLauncher) StartReceiver(recvSpec)          {}
func (l *benchLauncher) CancelReceiver(int, int, int)    {}
func (l *benchLauncher) Commit(int, int, int, msgCommit) {}

// benchPlan compiles a single transient stage with n fragment tasks: a
// Read source with n partitions and no downstream boundary, so the
// scheduler sees n independent waiting tasks and no receivers.
func benchPlan(tb testing.TB, n int) *core.Plan {
	tb.Helper()
	src := &dataflow.FuncSource{Partitions: n, Gen: func(p int) []data.Record { return nil }}
	p := dataflow.NewPipeline()
	p.Read("bench-src", src, data.KVCoder{K: data.StringCoder, V: data.Int64Coder})
	plan, err := core.Compile(p.Graph(), core.PlanConfig{})
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	if len(plan.Stages) != 1 || plan.Stages[0].RootReserved {
		tb.Fatalf("bench plan shape: %d stages, reserved=%v", len(plan.Stages), plan.Stages[0].RootReserved)
	}
	return plan
}

// benchFleet is a synthetic cluster for scheduler benchmarks: nodes
// exist only as scheduling membership (kinds, slots, round-robin
// order) plus a fake launcher per admitted job.
type benchFleet struct {
	jm    *JobManager
	ring  *refRing
	nodes []string
}

// newBenchManager builds an unstarted manager over a synthetic fleet.
// Jobs are admitted first (with the fleet empty, so nothing launches),
// then nodes and fake launchers register, then one scheduleAll
// saturates every slot.
func newBenchManager(tb testing.TB, jobs, tasksPerJob, nodes, slots int) *benchFleet {
	tb.Helper()
	cl, err := cluster.New(cluster.Config{Transient: nodes, Reserved: 1})
	if err != nil {
		tb.Fatalf("cluster: %v", err)
	}
	jm := newManager(cl, ManagerConfig{})
	plan := benchPlan(tb, tasksPerJob)
	cfg := Config{DisableCache: true, MaxTaskFailures: 1 << 30}
	fl := &benchFleet{jm: jm, ring: newRefRing(nodes*slots + jobs*tasksPerJob + 8)}

	handles := make([]*JobHandle, jobs)
	for i := range handles {
		h, err := jm.SubmitPlan(plan, cfg, JobOptions{Weight: float64(i%2) + 1})
		if err != nil {
			tb.Fatalf("submit: %v", err)
		}
		handles[i] = h
	}
	fl.drain()

	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("t%03d", i)
		fl.nodes = append(fl.nodes, id)
		jm.registerNode(id, cluster.Transient, slots)
		for _, h := range handles {
			h.j.execs[id] = &benchLauncher{job: h.id, ring: fl.ring}
		}
	}
	jm.scheduleAll()
	if fl.ring.tail != nodes*slots {
		tb.Fatalf("saturation launched %d tasks, want %d", fl.ring.tail, nodes*slots)
	}
	return fl
}

// drain handles every queued event (the loop goroutine is not running).
func (fl *benchFleet) drain() {
	for {
		select {
		case ev := <-fl.jm.events:
			fl.jm.handle(ev)
		default:
			return
		}
	}
}

// failNext pops the oldest live launch and fails it through the full
// event path: slot freed, task requeued, one replacement launched.
func (fl *benchFleet) failNext() {
	lr := fl.ring.pop()
	fl.jm.handle(evTaskFailed{ref: lr.Ref, Err: errBenchTask})
}

var benchSizes = []int{1_000, 10_000, 100_000}

// The allocation budgets are part of the contract: an idle pass over a
// saturated fleet touches only the bitset summaries and allocates
// nothing; a failure-relaunch cycle allocates only the boxed failure
// event and trace record. A regression here means a hot-path structure
// started escaping again.
func TestScheduleAllAllocs(t *testing.T) {
	fl := newBenchManager(t, 1, 10_000, 8, 4)
	if n := testing.AllocsPerRun(100, func() { fl.jm.scheduleAll() }); n > 0 {
		t.Errorf("idle scheduleAll allocates %.1f/op, want 0", n)
	}
}

func TestAssignTasksAllocs(t *testing.T) {
	fl := newBenchManager(t, 1, 10_000, 8, 4)
	if n := testing.AllocsPerRun(200, func() { fl.failNext() }); n > 4 {
		t.Errorf("failure-relaunch cycle allocates %.1f/op, want <= 4", n)
	}
}

func BenchmarkScheduleAll(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			fl := newBenchManager(b, 1, n, 8, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl.jm.scheduleAll()
			}
		})
	}
}

func BenchmarkAssignTasks(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			fl := newBenchManager(b, 1, n, 8, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl.failNext()
			}
		})
	}
}

func BenchmarkMasterEventLoop(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			fl := newBenchManager(b, 4, n/4, 8, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl.failNext()
			}
		})
	}
}
