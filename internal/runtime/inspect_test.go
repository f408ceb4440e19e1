package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/testutil"
	"pado/internal/trace"
)

// checkSnapshot asserts the structural invariants every Inspect
// snapshot must satisfy, torn views being exactly what the
// on-the-loop construction is supposed to rule out: no job both
// admitted and queued, task tallies that sum, budget arithmetic in
// range, and no node holding more slots than it has.
func checkSnapshot(t *testing.T, st *ManagerState, slots int) {
	t.Helper()
	if st.Version != InspectVersion {
		t.Errorf("snapshot version %d, want %d", st.Version, InspectVersion)
	}
	admitted := map[int]bool{}
	for _, j := range st.Jobs {
		if admitted[j.ID] {
			t.Errorf("job %d appears twice in Jobs", j.ID)
		}
		admitted[j.ID] = true
		var w, r, c, cm int
		for _, s := range j.Stages {
			if got := s.TasksWaiting + s.TasksRunning + s.TasksComputed + s.TasksCommitted; got != s.TasksTotal {
				t.Errorf("job %d stage %d: task states sum to %d, total %d (torn view)",
					j.ID, s.ID, got, s.TasksTotal)
			}
			w += s.TasksWaiting
			r += s.TasksRunning
			c += s.TasksComputed
			cm += s.TasksCommitted
		}
		if j.TasksWaiting != w || j.TasksRunning != r || j.TasksComputed != c || j.TasksCommitted != cm {
			t.Errorf("job %d: job tallies (%d/%d/%d/%d) disagree with stage sums (%d/%d/%d/%d)",
				j.ID, j.TasksWaiting, j.TasksRunning, j.TasksComputed, j.TasksCommitted, w, r, c, cm)
		}
	}
	for i, q := range st.Queue {
		if admitted[q.ID] {
			t.Errorf("job %d is both admitted and queued", q.ID)
		}
		if q.Position != i {
			t.Errorf("queue entry %d has position %d", i, q.Position)
		}
	}
	if st.BudgetFree < 0 || st.BudgetFree > st.BudgetTotal {
		t.Errorf("budget free %d outside [0, %d]", st.BudgetFree, st.BudgetTotal)
	}
	seen := map[string]bool{}
	for _, n := range st.Nodes {
		if seen[n.ID] {
			t.Errorf("node %s appears twice", n.ID)
		}
		seen[n.ID] = true
		if n.SlotsFree < 0 || n.SlotsFree > slots {
			t.Errorf("node %s: slots free %d outside [0, %d]", n.ID, n.SlotsFree, slots)
		}
		if n.RunningTasks < 0 || n.RunningTasks+n.SlotsFree > slots {
			t.Errorf("node %s: %d running tasks + %d free slots exceeds %d slots",
				n.ID, n.RunningTasks, n.SlotsFree, slots)
		}
	}
}

// checkGauges asserts the fleet gauges equal the snapshot's own tallies.
// A snapshot refreshes them as it is built and nothing else writes them,
// so with a single inspector the equality is exact.
func checkGauges(t *testing.T, reg *metrics.Job, st *ManagerState) {
	t.Helper()
	want := map[string]int{
		metrics.GaugeJobsRunning: len(st.Jobs),
		metrics.GaugeJobsQueued:  len(st.Queue),
		metrics.GaugeBudgetFree:  st.BudgetFree,
		metrics.GaugeNodesAlive:  len(st.Nodes),
	}
	for _, j := range st.Jobs {
		want[metrics.GaugeReceiversActive] += j.ReceiversActive
	}
	for _, n := range st.Nodes {
		want[metrics.GaugeTasksRunning] += n.RunningTasks
		if n.Kind == cluster.Transient.String() {
			want[metrics.GaugeSlotsFreeTrans] += n.SlotsFree
		} else {
			want[metrics.GaugeSlotsFreeReserved] += n.SlotsFree
		}
		if n.Detector == "suspect" {
			want[metrics.GaugeNodesSuspect]++
		}
	}
	for _, b := range st.Breakers {
		if b.State != "closed" {
			want[metrics.GaugeBreakersOpen]++
		}
	}
	for _, name := range []string{
		metrics.GaugeJobsRunning, metrics.GaugeJobsQueued, metrics.GaugeTasksRunning,
		metrics.GaugeReceiversActive, metrics.GaugeSlotsFreeTrans, metrics.GaugeSlotsFreeReserved,
		metrics.GaugeBudgetFree, metrics.GaugeNodesAlive, metrics.GaugeNodesSuspect, metrics.GaugeBreakersOpen,
	} {
		if got := reg.Gauge(name).Load(); got != int64(want[name]) {
			t.Errorf("gauge %s = %d, the snapshot tallies %d", name, got, want[name])
		}
	}
}

// TestInspectConsistentUnderChaos hammers Inspect from several
// goroutines while three jobs run through an eviction storm plus
// silent node kills (the failure detector's hardest case), asserting
// every snapshot is internally consistent and that silently killed
// nodes eventually leave the node list instead of lingering dead with
// running tasks.
func TestInspectConsistentUnderChaos(t *testing.T) {
	testutil.Watchdog(t, 90*time.Second)
	const slots = 4 // newTestCluster's per-container slot count
	cl := newTestCluster(t, 8, 2, trace.RateHigh)
	tracer := obs.New()
	fleet := &metrics.Job{}
	jm, err := NewJobManager(cl, ManagerConfig{
		Tracer:  tracer,
		Metrics: fleet,
		Failure: FailureConfig{
			HeartbeatEvery: 10 * time.Millisecond,
			SuspectAfter:   40 * time.Millisecond,
			DeadAfter:      150 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer jm.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 3
	handles := make([]*JobHandle, n)
	expects := make([]map[string]int64, n)
	for i := 0; i < n; i++ {
		handles[i], expects[i] = submitWordCount(t, jm, 4, 150+10*i,
			Config{Tracer: tracer, MaxTaskFailures: 1000}, JobOptions{})
	}

	// One inspector, jobs running: the gauges are this snapshot's tallies.
	for i := 0; i < 5; i++ {
		st, err := jm.Inspect(ctx)
		if err != nil {
			t.Fatalf("inspect: %v", err)
		}
		if len(st.Jobs) == 0 || len(st.Nodes) == 0 {
			t.Fatalf("mid-run snapshot shows %d jobs on %d nodes, want running jobs on a live fleet", len(st.Jobs), len(st.Nodes))
		}
		checkGauges(t, fleet, st)
		time.Sleep(5 * time.Millisecond)
	}

	// Silent kills on top of the organic eviction storm: the node
	// vanishes with no eviction notice, so only heartbeat staleness can
	// reveal it — the window where a stale view would show a dead node
	// still holding tasks.
	var killMu sync.Mutex
	var killed []string
	go func() {
		for i := 0; i < 3; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(120 * time.Millisecond):
			}
			live := cl.Containers(cluster.Transient)
			if len(live) == 0 {
				return
			}
			id := live[0].ID
			if err := cl.KillSilently(id, true); err == nil {
				killMu.Lock()
				killed = append(killed, id)
				killMu.Unlock()
			}
		}
	}()

	// Concurrent pollers: every snapshot taken mid-storm must hold the
	// invariants.
	done := make(chan struct{})
	var polls atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st, err := jm.Inspect(ctx)
				if err != nil {
					return
				}
				checkSnapshot(t, st, slots)
				polls.Add(1)
			}
		}()
	}

	for i := 0; i < n; i++ {
		res, err := handles[i].Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", handles[i].ID(), err)
		}
		checkWordCount(t, res, expects[i])
	}
	close(done)
	wg.Wait()
	if polls.Load() < 10 {
		t.Errorf("only %d successful Inspect polls during the run", polls.Load())
	}

	// Eventually-consistent departure: once the detector declares a
	// silently killed node dead, it must leave the snapshot entirely —
	// never linger as a dead node holding running tasks.
	killMu.Lock()
	gone := append([]string(nil), killed...)
	killMu.Unlock()
	if len(gone) == 0 {
		t.Fatalf("no silent kills landed; the chaos half of the test did not run")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := jm.Inspect(ctx)
		if err != nil {
			t.Fatalf("final inspect: %v", err)
		}
		checkGauges(t, fleet, st)
		lingering := 0
		for _, node := range st.Nodes {
			for _, id := range gone {
				if node.ID == id {
					lingering++
					if node.RunningTasks > 0 && node.Detector != "suspect" {
						t.Errorf("killed node %s healthy with %d running tasks", id, node.RunningTasks)
					}
				}
			}
		}
		if lingering == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d silently killed node(s) still in the snapshot after %v", lingering, 5*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
