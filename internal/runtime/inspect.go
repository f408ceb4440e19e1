package runtime

import (
	"context"
	"time"

	"pado/internal/cluster"
	"pado/internal/metrics"
)

// Inspect is the manager's consistent, race-safe state snapshot API —
// the exported, versioned view of the state that otherwise lives in
// private maps behind the event loop. The snapshot is built ON the
// loop (an evInspect event), so it can never show a torn view: no job
// appears both admitted and queued, budget arithmetic balances, and a
// node is never both departed and holding running tasks. The HTTP
// introspection plane (internal/introspect) and padotop are the
// primary consumers; tests assert its consistency mid-chaos.

// InspectVersion identifies the ManagerState schema. Bump on any
// incompatible change so pollers (padotop, dashboards) can detect
// skew instead of mis-rendering.
const InspectVersion = 2

// ManagerState is one consistent snapshot of a JobManager.
type ManagerState struct {
	Version int       `json:"version"`
	TakenAt time.Time `json:"taken_at"`

	// Reserved-slot admission budget (0 total = admission disabled).
	BudgetTotal int `json:"budget_total"`
	BudgetFree  int `json:"budget_free"`
	// Broken carries the manager's poison error (event-queue overflow)
	// when it has stopped accepting work; "" while healthy.
	Broken string `json:"broken,omitempty"`

	Jobs     []JobState     `json:"jobs"`
	Queue    []QueuedJob    `json:"queue"`
	Nodes    []NodeState    `json:"nodes"`
	Breakers []BreakerState `json:"breakers"`

	// Sched summarizes control-plane scheduling efficiency (additive in
	// schema version 1; older pollers ignore it).
	Sched SchedState `json:"sched"`

	// Store summarizes the commit plane's content-addressed store (nil
	// when the manager runs without one; additive in schema version 1).
	Store *StoreState `json:"store,omitempty"`
}

// StoreState is the commit store's live summary: resident size plus the
// cumulative probe/commit/GC tallies, straight from storage.CommitStats.
type StoreState struct {
	Chunks      int   `json:"chunks"`
	Manifests   int   `json:"manifests"`
	UsedBytes   int64 `json:"used_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Commits     int64 `json:"commits"`
	DedupPuts   int64 `json:"dedup_puts"`
	GCRuns      int64 `json:"gc_runs"`
	GCCollected int64 `json:"gc_collected"`
}

// SchedState is the scheduler's cost summary: the counter trio from the
// fleet registry plus the current runnable backlog, so scanned/rounds
// can be read against how much work was actually outstanding.
type SchedState struct {
	// Rounds is the number of scheduling passes (one per handled event).
	Rounds int64 `json:"rounds"`
	// TasksScanned is how many task states the assignment pass visited
	// across all rounds; TasksScanned/Rounds is the per-event scheduling
	// cost.
	TasksScanned int64 `json:"tasks_scanned"`
	// SlotIndexHits counts rounds that found the executor pool saturated.
	SlotIndexHits int64 `json:"slot_index_hits"`
	// RunnableTasks is the fleet-wide count of launchable tasks (waiting
	// tasks of running stages), counted when the snapshot is built.
	RunnableTasks int `json:"runnable_tasks"`
}

// JobState is one admitted job's progress.
type JobState struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Demand is the job's reserved-slot claim against the cell budget.
	Demand int `json:"demand"`
	// RunningFor is wall time since admission, nanoseconds.
	RunningFor time.Duration `json:"running_for_ns"`
	Finished   bool          `json:"finished"`

	Stages []StageState `json:"stages"`

	// Fleet-wide task tallies (sums over stages of the current
	// generation).
	TasksWaiting   int `json:"tasks_waiting"`
	TasksRunning   int `json:"tasks_running"`
	TasksComputed  int `json:"tasks_computed"`
	TasksCommitted int `json:"tasks_committed"`
	// ReceiversActive is the job's live reserved-task count.
	ReceiversActive int `json:"receivers_active"`

	// Counters/Gauges/Hists are the job registry's current values.
	Counters map[string]int64                `json:"counters,omitempty"`
	Gauges   map[string]int64                `json:"gauges,omitempty"`
	Hists    map[string]metrics.HistSnapshot `json:"hists,omitempty"`
	// Registry is the live per-job metrics registry, for exposition
	// layers that label samples by job; not part of the JSON view.
	Registry *metrics.Job `json:"-"`
}

// StageState is one stage's state-machine position.
type StageState struct {
	ID       int    `json:"id"`
	Status   string `json:"status"` // pending | starting_receivers | running | done
	Gen      int    `json:"gen"`
	Restarts int    `json:"restarts"`

	Receivers      int `json:"receivers"`
	ReceiversReady int `json:"receivers_ready"`
	ReceiversDone  int `json:"receivers_done"`

	TasksTotal     int `json:"tasks_total"`
	TasksWaiting   int `json:"tasks_waiting"`
	TasksRunning   int `json:"tasks_running"`
	TasksComputed  int `json:"tasks_computed"`
	TasksCommitted int `json:"tasks_committed"`
}

// QueuedJob is one job waiting in the admission queue.
type QueuedJob struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Demand   int    `json:"demand"`
	Position int    `json:"position"`
}

// NodeState is one live container as the manager sees it, fused with
// the failure detector's view.
type NodeState struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"` // transient | reserved
	SlotsFree int    `json:"slots_free"`
	// RunningTasks counts outstanding slot assignments on the node
	// across all jobs.
	RunningTasks int `json:"running_tasks"`
	// Detector is the failure detector's state for the node: "alive",
	// "suspect", or "" when the detector is off or not tracking it.
	Detector string `json:"detector,omitempty"`
	// LastBeatAge is time since the node's last heartbeat, nanoseconds
	// (0 when untracked).
	LastBeatAge time.Duration `json:"last_beat_age_ns,omitempty"`
	// ReportedOpen lists destinations the node's own breakers report
	// open (the gray signal carried by its heartbeats).
	ReportedOpen []string `json:"reported_open,omitempty"`
}

// BreakerState is one per-destination circuit breaker on the manager's
// own connection pool.
type BreakerState struct {
	Dest  string `json:"dest"`
	State string `json:"state"` // closed | open | half-open
	Fails int    `json:"fails"`
	// RetryBudget is the destination's banked retry tokens.
	RetryBudget float64 `json:"retry_budget"`
}

var stageStatusNames = map[stageStatus]string{
	sPending:           "pending",
	sStartingReceivers: "starting_receivers",
	sRunning:           "running",
	sDone:              "done",
}

var breakerStateNames = map[int]string{
	brClosed:   "closed",
	brOpen:     "open",
	brHalfOpen: "half-open",
}

// Inspect returns a consistent snapshot of the manager's state, built
// on the event loop. It blocks until the loop services the request,
// ctx expires, or the manager closes. Safe to call from any goroutine,
// concurrently with running jobs.
func (jm *JobManager) Inspect(ctx context.Context) (*ManagerState, error) {
	reply := make(chan *ManagerState, 1)
	select {
	case jm.events <- evInspect{reply: reply}:
	case <-jm.quit:
		return nil, errManagerClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case st := <-reply:
		return st, nil
	case <-jm.quit:
		// The loop may have exited with the request still queued.
		return nil, errManagerClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Metrics returns the manager's fleet-wide metrics registry.
func (jm *JobManager) Metrics() *metrics.Job { return jm.met }

// buildState assembles the snapshot. Runs on the event loop only.
func (jm *JobManager) buildState() *ManagerState {
	now := time.Now()
	st := &ManagerState{
		Version:     InspectVersion,
		TakenAt:     now,
		BudgetTotal: jm.budgetTotal,
		BudgetFree:  jm.budgetFree,
	}
	if jm.broken != nil {
		st.Broken = jm.broken.Error()
	}

	for _, id := range jm.order {
		st.Jobs = append(st.Jobs, jm.jobState(jm.jobs[id], now))
	}
	for i, q := range jm.queue {
		st.Queue = append(st.Queue, QueuedJob{
			ID: q.id, Name: q.name, Demand: q.demand, Position: i,
		})
	}

	running := make(map[string]int, len(jm.hosts))
	for _, exec := range jm.assignments {
		running[exec]++
	}
	fdv := jm.fd.inspect(now)
	for _, h := range jm.hostsInOrder() {
		n := NodeState{
			ID:           h.id,
			Kind:         jm.kinds[h.id].String(),
			SlotsFree:    jm.slotsFree[h.id],
			RunningTasks: running[h.id],
		}
		if v, ok := fdv[h.id]; ok {
			n.Detector = "alive"
			if v.suspect {
				n.Detector = "suspect"
			}
			n.LastBeatAge = now.Sub(v.lastBeat)
			n.ReportedOpen = v.open
		}
		st.Nodes = append(st.Nodes, n)
	}

	st.Breakers = append(st.Breakers, jm.dp.inspect()...)

	st.Sched = SchedState{
		Rounds:        jm.cSchedRounds.Load(),
		TasksScanned:  jm.cTasksScanned.Load(),
		SlotIndexHits: jm.cSlotIndexHits.Load(),
	}
	for _, js := range st.Jobs {
		for _, ss := range js.Stages {
			if ss.Status == stageStatusNames[sRunning] {
				st.Sched.RunnableTasks += ss.TasksWaiting
			}
		}
	}

	if jm.commits != nil {
		cs := jm.commits.store.Stats()
		st.Store = &StoreState{
			Chunks: cs.Chunks, Manifests: cs.Manifests, UsedBytes: cs.UsedBytes,
			Hits: cs.Hits, Misses: cs.Misses, Commits: cs.Commits,
			DedupPuts: cs.DedupPuts, GCRuns: cs.GCRuns, GCCollected: cs.GCCollected,
		}
		jm.met.Gauge(metrics.GaugeCASChunks).Set(int64(cs.Chunks))
		jm.met.Gauge(metrics.GaugeCASManifests).Set(int64(cs.Manifests))
		jm.met.Gauge(metrics.GaugeStorageUsedBytes).Set(cs.UsedBytes)
	}
	jm.refreshGauges(st)
	return st
}

// refreshGauges sets the fleet gauges to the snapshot's tallies. Gauges
// are only ever read behind a snapshot — /metrics, /state and padotop all
// Inspect first — so refreshing them here keeps them as fresh as any
// reader can see while event handling pays nothing for them.
func (jm *JobManager) refreshGauges(st *ManagerState) {
	var recv, running, freeT, freeR, suspect, open int
	for _, j := range st.Jobs {
		recv += j.ReceiversActive
	}
	for _, n := range st.Nodes {
		running += n.RunningTasks
		if n.Kind == cluster.Transient.String() {
			freeT += n.SlotsFree
		} else {
			freeR += n.SlotsFree
		}
		if n.Detector == "suspect" {
			suspect++
		}
	}
	for _, b := range st.Breakers {
		if b.State != breakerStateNames[brClosed] {
			open++
		}
	}
	for name, v := range map[string]int{
		metrics.GaugeJobsRunning:       len(st.Jobs),
		metrics.GaugeJobsQueued:        len(st.Queue),
		metrics.GaugeTasksRunning:      running,
		metrics.GaugeReceiversActive:   recv,
		metrics.GaugeSlotsFreeTrans:    freeT,
		metrics.GaugeSlotsFreeReserved: freeR,
		metrics.GaugeBudgetFree:        st.BudgetFree,
		metrics.GaugeNodesAlive:        len(st.Nodes),
		metrics.GaugeNodesSuspect:      suspect,
		metrics.GaugeBreakersOpen:      open,
	} {
		jm.met.Gauge(name).Set(int64(v))
	}
}

// jobState projects one jobRun. Runs on the event loop only.
func (jm *JobManager) jobState(j *jobRun, now time.Time) JobState {
	js := JobState{
		ID:              j.id,
		Name:            j.name,
		Demand:          j.demand,
		RunningFor:      now.Sub(j.t0),
		Finished:        j.finished,
		ReceiversActive: j.recvActive,
		Registry:        j.met,
	}
	for _, s := range j.stages {
		ss := StageState{
			ID:       s.ps.ID,
			Status:   stageStatusNames[s.status],
			Gen:      s.gen,
			Restarts: s.restarts,

			Receivers:      len(s.recvExecs),
			ReceiversReady: s.nReady,
			ReceiversDone:  s.nDone,
		}
		for _, fr := range s.frags {
			for _, t := range fr.tasks {
				ss.TasksTotal++
				switch t.state {
				case tWaiting:
					ss.TasksWaiting++
				case tRunning:
					ss.TasksRunning++
				case tComputed:
					ss.TasksComputed++
				case tCommitted:
					ss.TasksCommitted++
				}
			}
		}
		js.TasksWaiting += ss.TasksWaiting
		js.TasksRunning += ss.TasksRunning
		js.TasksComputed += ss.TasksComputed
		js.TasksCommitted += ss.TasksCommitted
		js.Stages = append(js.Stages, ss)
	}

	js.Counters = make(map[string]int64)
	j.met.Each(func(name string, v int64) { js.Counters[name] = v })
	j.met.EachGauge(func(name string, v int64) {
		if js.Gauges == nil {
			js.Gauges = make(map[string]int64)
		}
		js.Gauges[name] = v
	})
	j.met.EachHistogram(func(name string, s metrics.HistSnapshot) {
		if js.Hists == nil {
			js.Hists = make(map[string]metrics.HistSnapshot)
		}
		js.Hists[name] = s
	})
	return js
}

// fdNodeView is the detector's per-node state exported for snapshots.
type fdNodeView struct {
	suspect  bool
	lastBeat time.Time
	open     []string
}

// inspect copies the detector's per-node state (suspect flag, last
// beat, reported-open destinations). Safe from any goroutine.
func (fd *failureDetector) inspect(now time.Time) map[string]fdNodeView {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	out := make(map[string]fdNodeView, len(fd.nodes))
	for id, n := range fd.nodes {
		v := fdNodeView{suspect: n.suspect, lastBeat: n.lastBeat}
		if len(n.openFirst) > 0 {
			v.open = make([]string, 0, len(n.openFirst))
			for d := range n.openFirst {
				v.open = append(v.open, d)
			}
			sortStrings(v.open)
		}
		out[id] = v
	}
	return out
}

// inspect lists every destination with non-default breaker state or a
// drained retry budget, sorted by destination. Safe from any goroutine.
func (dp *dataPlane) inspect() []BreakerState {
	dp.mu.Lock()
	out := make([]BreakerState, 0, len(dp.dests))
	for to, d := range dp.dests {
		out = append(out, BreakerState{
			Dest:        to,
			State:       breakerStateNames[d.state],
			Fails:       d.fails,
			RetryBudget: d.budget,
		})
	}
	dp.mu.Unlock()
	sortBreakers(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortBreakers(s []BreakerState) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Dest < s[j-1].Dest; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
