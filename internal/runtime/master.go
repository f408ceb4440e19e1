package runtime

import (
	"fmt"
	"slices"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/recache"
)

// This file holds the per-job half of the JobManager (manager.go holds
// the resident service: admission, the event loop, and job lifecycle).
// Each handler below is the §3.2 master logic — scheduling, the commit
// relay, eviction tolerance, reserved-failure recovery — applied to one
// jobRun's stage state, with the fleet (hosts, slots, round-robin
// cursors) shared across jobs.

// Task and stage state machines.
type taskState int

const (
	tWaiting taskState = iota
	tRunning
	tComputed
	tCommitted
)

type taskRun struct {
	state   taskState
	attempt int
	exec    string
	fails   int
	// started stamps the current attempt's launch; the latency
	// histograms (task_compute_ns, task_commit_ns) measure from it.
	started time.Time
}

type fragRun struct {
	tasks      []*taskRun
	nCommitted int
}

type stageStatus int

const (
	sPending stageStatus = iota
	sStartingReceivers
	sRunning
	sDone
)

type stageRun struct {
	ps       *core.PhysStage
	status   stageStatus
	gen      int
	restarts int

	// recvExecs is immutable for the life of a generation and shared by
	// reference into every taskSpec.Receivers of that generation
	// (executors only read it); resetStage replaces, never mutates, it.
	recvExecs []string
	recvReady []bool
	nReady    int
	recvDone  []bool
	nDone     int

	frags []*fragRun

	// Dense task-index layout (sched.go): denseBase is the stage's
	// offset in the job-wide index, fragOff the per-fragment offsets
	// within the stage, nTasks the stage's fragment-task count. Fixed at
	// submission.
	denseBase int
	fragOff   []int
	nTasks    int
	// inputLocs caches inputLocsFor for the current generation. Valid
	// for the generation's lifetime: a parent's gen/outputExecs can only
	// change via resetStage, and every path that resets a parent resets
	// its running children too (§3.2.6), which clears this cache.
	inputLocs map[int]stageLoc

	// outputExecs locates the stage's output partitions once done.
	outputExecs []string
	// results holds terminal transient task payloads.
	results  [][]byte
	nResults int

	// Commit-plane state (commitplane.go). skipChunks, when non-nil,
	// marks the stage served whole from the commit store: element i is
	// the CAS chunk holding partition i, and consumers fetch from the
	// store instead of outputExecs. taskHits holds per-task probe hits
	// ([frag][task] → per-receiver chunks) applied each generation by
	// applyTaskSkips; entries are nilled when a CAS pull fails so the
	// task relaunches for real. Both survive resetStage — content
	// addresses stay valid across restarts. outChunks gathers
	// evReservedTaskDone.Chunk per receiver for the stage manifest and
	// is per-generation (resetStage clears it).
	skipChunks []string
	taskHits   [][][]string
	outChunks  []string
}

// relaunchableState: states below this are relaunched on eviction.
const relaunchableState = tCommitted

// trackReceivers adjusts one job's live reserved-task count and records
// the high-water mark.
func (jm *JobManager) trackReceivers(j *jobRun, delta int) {
	j.recvActive += delta
	if j.recvActive > j.recvPeak {
		j.recvPeak = j.recvActive
		j.met.Counter("reserved_slots_peak").Store(int64(j.recvPeak))
	}
}

func (jm *JobManager) abort(j *jobRun, err error) {
	if j.failErr == nil && !j.finished {
		j.failErr = err
		j.tr.Emit(obs.Event{Kind: obs.JobAborted, Note: err.Error()})
	}
	j.finished = true
}

// Fleet-level container lifecycle.

func (jm *JobManager) onLaunched(c *cluster.Container) {
	h, err := newNodeHost(c)
	if err != nil {
		// The container raced its own eviction; a replacement follows.
		return
	}
	jm.tr.Emit(obs.Event{Kind: obs.ContainerUp, Exec: c.ID, Note: c.Kind.String()})
	jm.hosts[c.ID] = h
	jm.registerNode(c.ID, c.Kind, c.Slots)
	// Every admitted job gets an executor on the new container.
	for _, id := range jm.order {
		jm.attachExecutor(jm.jobs[id], h)
	}
	jm.fd.register(c.ID, time.Now())
	h.startHeartbeats(jm.net, "master", jm.cfg.Failure.heartbeatEvery(), jm.met)
}

// registerNode adds one container to the fleet's scheduling membership:
// kind and slot tables plus the per-kind round-robin order. Shared by
// the cluster callback and by scheduler tests/benchmarks that build a
// fleet without live hosts, so both stay consistent with the free-slot
// index.
func (jm *JobManager) registerNode(id string, kind cluster.Kind, slots int) {
	jm.kinds[id] = kind
	jm.slotsFree[id] = slots
	jm.freeSlots[kind] += slots
	if kind == cluster.Transient {
		jm.transientOrder = append(jm.transientOrder, id)
	} else {
		jm.reservedOrder = append(jm.reservedOrder, id)
	}
}

func (jm *JobManager) dropHost(id string) {
	jm.fd.forget(id)
	if h := jm.hosts[id]; h != nil {
		h.shutdown()
	}
	delete(jm.hosts, id)
	if kind, ok := jm.kinds[id]; ok {
		jm.freeSlots[kind] -= jm.slotsFree[id]
	}
	delete(jm.kinds, id)
	delete(jm.slotsFree, id)
	jm.transientOrder = slices.DeleteFunc(jm.transientOrder, func(x string) bool { return x == id })
	jm.reservedOrder = slices.DeleteFunc(jm.reservedOrder, func(x string) bool { return x == id })
	for _, jid := range jm.order {
		j := jm.jobs[jid]
		delete(j.execs, id)
		for key, set := range j.cacheIndex {
			delete(set, id)
			if len(set) == 0 {
				delete(j.cacheIndex, key)
			}
		}
	}
	for ref, exec := range jm.assignments {
		if exec == id {
			delete(jm.assignments, ref)
		}
	}
}

// onEvicted implements §3.2.5 for every admitted job: only the
// uncommitted tasks that were scheduled on the evicted executor are
// relaunched; parent stages are never recomputed.
func (jm *JobManager) onEvicted(c *cluster.Container) {
	// The announcement is a fast-path hint: if the detector already
	// declared this node dead and recovery ran, there is nothing left to
	// do (the host is gone and tasks were requeued once).
	if jm.hosts[c.ID] == nil {
		return
	}
	// Evictions are only traced and counted while someone is running:
	// the resident manager outlives its jobs, and an eviction in an idle
	// cell perturbs nobody (the old per-job master stopped observing at
	// job completion; this keeps trace counts aligned with job metrics).
	if len(jm.order) > 0 {
		jm.tr.Emit(obs.Event{Kind: obs.ContainerEvicted, Exec: c.ID})
	}
	jm.dropHost(c.ID)
	jm.recoverEvicted(c.ID)
}

// recoverEvicted implements §3.2.5 task-level recovery for a departed
// transient node, whether the departure was announced (eviction callback)
// or detector-declared: only uncommitted tasks scheduled on it relaunch;
// parent stages are never recomputed.
func (jm *JobManager) recoverEvicted(id string) {
	for _, jid := range jm.order {
		j := jm.jobs[jid]
		j.met.Evictions.Add(1)
		for _, s := range j.stages {
			if s.status != sRunning && s.status != sStartingReceivers {
				continue
			}
			for fi, fr := range s.frags {
				for ti, t := range fr.tasks {
					if t.exec == id && t.state != tWaiting && t.state != tCommitted {
						jm.requeue(j, s, fi, ti, t)
						j.tr.Emit(obs.Event{Kind: obs.TaskRelaunched, Stage: s.ps.ID,
							Frag: fi, Task: ti, Attempt: t.attempt, Exec: id})
					}
				}
			}
		}
	}
}

func (jm *JobManager) requeue(j *jobRun, s *stageRun, fi, ti int, t *taskRun) {
	t.state = tWaiting
	t.exec = ""
	t.attempt++
	j.met.RelaunchedTasks.Add(1)
	// The runnable bit tracks tWaiting ∧ sRunning; a task requeued in a
	// completed or resetting stage stays invisible to the scheduler,
	// exactly like the legacy scanner's status check.
	if s.status == sRunning {
		j.runnable.set(s.denseIdx(fi, ti))
	}
}

// onFailed implements §3.2.6 for every admitted job: identify stages
// whose intermediate results were lost with the reserved container,
// pause dependents, and recompute in topological order (via the normal
// pending-stage scheduling).
func (jm *JobManager) onFailed(c *cluster.Container) {
	if jm.hosts[c.ID] == nil {
		return // detector already declared and recovered this node
	}
	if len(jm.order) > 0 {
		jm.tr.Emit(obs.Event{Kind: obs.ContainerFailed, Exec: c.ID})
	}
	jm.dropHost(c.ID)
	jm.recoverFailed(c.ID)
}

// recoverFailed implements §3.2.6 reserved-failure recovery for a
// departed reserved node, announced or detector-declared: stages whose
// intermediate results were lost with it restart, in topological order
// via the normal pending-stage scheduling.
func (jm *JobManager) recoverFailed(id string) {
	for _, jid := range jm.order {
		j := jm.jobs[jid]
		lost := make(map[int]bool)
		for _, s := range j.stages {
			if s.status == sDone && slices.Contains(s.outputExecs, id) {
				lost[s.ps.ID] = true
			}
		}
		for _, s := range j.stages {
			restart := lost[s.ps.ID]
			if s.status == sRunning || s.status == sStartingReceivers {
				if slices.Contains(s.recvExecs, id) {
					restart = true
				}
				for _, pid := range s.ps.Parents {
					if lost[pid] {
						restart = true
					}
				}
			}
			if restart {
				jm.resetStage(j, s)
			}
		}
	}
}

// onDetectorTick runs one detector sweep and applies its transitions:
// counters and trace events for suspicion churn, full recovery for dead
// declarations.
func (jm *JobManager) onDetectorTick() {
	alive := func(id string) bool { return jm.hosts[id] != nil }
	for _, tr := range jm.fd.tick(time.Now(), alive) {
		switch tr.Kind {
		case fdMissed:
			jm.met.Counter(metrics.NameHeartbeatsMissed).Add(1)
			jm.tr.Emit(obs.Event{Kind: obs.HeartbeatMissed, Exec: tr.ID})
		case fdSuspect:
			jm.met.Counter(metrics.NameSuspicionsRaised).Add(1)
			jm.tr.Emit(obs.Event{Kind: obs.SuspicionRaised, Exec: tr.ID})
		case fdCleared:
			jm.met.Counter(metrics.NameSuspicionsCleared).Add(1)
			jm.tr.Emit(obs.Event{Kind: obs.SuspicionCleared, Exec: tr.ID})
		case fdDead:
			jm.onDeclaredDead(tr.ID, tr.Cause)
		}
	}
}

// onDeclaredDead is the detector-triggered analogue of the cluster's
// eviction/failure callbacks: quarantine the node (removing it from the
// network unblocks anything wedged on its links, and a replacement is
// allocated), then drive the same recovery path an announcement would
// have — task relaunch for transients, topological stage recomputation
// for reserved nodes.
func (jm *JobManager) onDeclaredDead(id, cause string) {
	if jm.hosts[id] == nil {
		jm.fd.forget(id) // raced an announced departure; nothing to recover
		return
	}
	kind := jm.kinds[id]
	jm.met.Counter(metrics.NameNodesDeclaredDead).Add(1)
	jm.tr.Emit(obs.Event{Kind: obs.NodeDeclaredDead, Exec: id,
		Note: fmt.Sprintf("%s %s", kind, cause)})
	jm.cl.Quarantine(id, true)
	jm.dropHost(id)
	if kind == cluster.Reserved {
		jm.recoverFailed(id)
	} else {
		jm.recoverEvicted(id)
	}
}

// resetStage returns a stage to pending so scheduling recomputes it under
// a fresh generation. Receivers still alive are canceled; in-flight tasks
// keep running but their events carry a stale generation and are dropped.
func (jm *JobManager) resetStage(j *jobRun, s *stageRun) {
	for idx, e := range s.recvExecs {
		if ex := j.execs[e]; ex != nil {
			ex.CancelReceiver(s.ps.ID, s.gen, idx)
		}
		if !s.recvDone[idx] {
			jm.trackReceivers(j, -1)
		}
	}
	if s.status == sRunning {
		j.unmarkRunnable(s)
	}
	if s.status == sDone {
		// Children counted this stage as a finished parent; undo that
		// before it re-enters sPending.
		jm.markStageUndone(j, s)
	}
	s.status = sPending
	s.restarts++
	s.recvExecs = nil
	s.recvReady = nil
	s.nReady = 0
	s.recvDone = nil
	s.nDone = 0
	s.frags = nil
	s.inputLocs = nil
	s.outputExecs = nil
	s.results = nil
	s.nResults = 0
	s.outChunks = nil
	jm.recomputeReadiness(j, s)
	if s.restarts > maxStageRestarts {
		jm.abort(j, fmt.Errorf("runtime: stage %d restarted more than %d times", s.ps.ID, maxStageRestarts))
	}
}

// stage lookups with generation validation.
func (jm *JobManager) stageAt(j *jobRun, id, gen int) *stageRun {
	if id < 0 || id >= len(j.stages) {
		return nil
	}
	s := j.stages[id]
	if s.gen != gen {
		return nil
	}
	return s
}

func (jm *JobManager) taskAt(j *jobRun, ref taskRef) (*stageRun, *taskRun) {
	s := jm.stageAt(j, ref.Stage, ref.Gen)
	if s == nil || ref.Frag >= len(s.frags) {
		return nil, nil
	}
	fr := s.frags[ref.Frag]
	if ref.Index >= len(fr.tasks) {
		return nil, nil
	}
	t := fr.tasks[ref.Index]
	if t.attempt != ref.Attempt {
		return nil, nil
	}
	return s, t
}

func (jm *JobManager) freeSlot(ref taskRef) {
	if exec, ok := jm.assignments[ref]; ok {
		delete(jm.assignments, ref)
		jm.creditSlot(exec)
	}
}

func (jm *JobManager) onReceiverReady(j *jobRun, e evReceiverReady) {
	s := jm.stageAt(j, e.Stage, e.Gen)
	if s == nil || s.status != sStartingReceivers || s.recvReady[e.Index] {
		return
	}
	s.recvReady[e.Index] = true
	s.nReady++
	j.tr.Emit(obs.Event{Kind: obs.ReceiverReady, Stage: s.ps.ID, Frag: obs.ReservedFrag,
		Task: e.Index, Exec: s.recvExecs[e.Index]})
	if s.nReady == len(s.recvExecs) {
		s.status = sRunning
		// Every fragment task is still tWaiting here (only sRunning
		// stages launch tasks), so the whole stage becomes runnable.
		j.markRunnable(s)
		// Tasks whose output is already in the commit store commit
		// without launching (commitplane.go).
		jm.applyTaskSkips(j, s)
	}
}

func (jm *JobManager) onReceiverFailed(j *jobRun, e evReceiverFailed) {
	if e.Fatal {
		jm.abort(j, fmt.Errorf("runtime: reserved task %d/%d failed: %w", e.Stage, e.Index, e.Err))
		return
	}
	s := jm.stageAt(j, e.Stage, e.Gen)
	if s == nil || s.status == sDone {
		return
	}
	j.tr.Emit(obs.Event{Kind: obs.TaskFailed, Stage: s.ps.ID, Frag: obs.ReservedFrag,
		Task: e.Index, Note: e.Err.Error()})
	jm.resetStage(j, s)
}

func (jm *JobManager) onTaskComputed(j *jobRun, e evTaskComputed) {
	jm.freeSlot(e.ref)
	for _, key := range e.Cached {
		set := j.cacheIndex[key]
		if set == nil {
			set = make(map[string]bool)
			j.cacheIndex[key] = set
		}
		set[e.Exec] = true
	}
	s, t := jm.taskAt(j, e.ref)
	if t == nil || t.state != tRunning {
		return
	}
	t.state = tComputed
	if !t.started.IsZero() {
		j.histCompute.ObserveDuration(time.Since(t.started))
	}
	j.tr.Emit(obs.Event{Kind: obs.TaskFinished, Stage: s.ps.ID, Frag: e.ref.Frag,
		Task: e.ref.Index, Attempt: e.ref.Attempt, Exec: e.Exec})
}

// onOutputCommitted applies one frame set's commit all-or-nothing. A
// receiver processes a frame only once every covered task is committed at
// the frame's attempt and drops it as soon as one was relaunched, so a
// cover with a stale member (its executor was evicted, or declared dead,
// between the push and this event) commits nothing: the members that are
// still current relaunch with the rest, and no task is ever left committed
// behind a frame that will be dropped.
func (jm *JobManager) onOutputCommitted(j *jobRun, e evOutputCommitted) {
	ref := taskRef{Job: e.Job, Stage: e.Stage, Gen: e.Gen, Frag: e.Frag}
	live := func(c senderRef) (*stageRun, *taskRun) {
		ref.Index, ref.Attempt = c.Index, c.Attempt
		s, t := jm.taskAt(j, ref)
		if t == nil || t.state == tCommitted || t.state == tWaiting {
			return nil, nil
		}
		return s, t
	}
	stale := false
	for _, c := range e.Cover {
		if _, t := live(c); t == nil {
			stale = true
		}
	}
	for _, c := range e.Cover {
		s, t := live(c)
		switch {
		case !stale:
			jm.commitTask(j, s, e.Frag, c, t)
		case t != nil:
			jm.requeue(j, s, e.Frag, c.Index, t)
			j.tr.Emit(obs.Event{Kind: obs.TaskRelaunched, Stage: e.Stage, Frag: e.Frag,
				Task: c.Index, Attempt: t.attempt, Note: "cover_stale"})
		}
	}
}

// commitTask marks one covered task committed and relays the commit to
// every receiver of the stage (§3.2.5). The chaos hook may delay or
// duplicate individual relays; receivers' attempt tracking must make
// duplicates harmless and delays at worst slow (stale generations are
// dropped on arrival).
func (jm *JobManager) commitTask(j *jobRun, s *stageRun, frag int, c senderRef, t *taskRun) {
	t.state = tCommitted
	if !t.started.IsZero() {
		j.histCommit.ObserveDuration(time.Since(t.started))
	}
	s.frags[frag].nCommitted++
	j.tr.Emit(obs.Event{Kind: obs.PushCommitted, Stage: s.ps.ID, Frag: frag,
		Task: c.Index, Attempt: c.Attempt, Exec: t.exec})
	for idx, exID := range s.recvExecs {
		ex := j.execs[exID]
		if ex == nil {
			continue
		}
		msg := msgCommit{Frag: frag, Index: c.Index, Attempt: c.Attempt, Exec: t.exec}
		stage, gen := s.ps.ID, s.gen
		var delay time.Duration
		dups := 0
		if j.cfg.Chaos != nil {
			delay, dups = j.cfg.Chaos.CommitRelay(j.id, stage, frag, c.Index, c.Attempt, idx)
		}
		send := func() {
			for i := 0; i <= dups; i++ {
				ex.Commit(stage, gen, idx, msg)
			}
		}
		if delay > 0 {
			time.AfterFunc(delay, send)
		} else {
			send()
		}
	}
}

func (jm *JobManager) onTaskFailed(j *jobRun, e evTaskFailed) {
	jm.freeSlot(e.ref)
	if e.Fatal {
		jm.abort(j, fmt.Errorf("runtime: task %v failed: %w", e.ref, e.Err))
		return
	}
	s, t := jm.taskAt(j, e.ref)
	if s == nil || t == nil || t.state == tWaiting || t.state == tCommitted {
		return
	}
	t.fails++
	if max := j.cfg.maxTaskFailures(); t.fails > max {
		jm.abort(j, fmt.Errorf("runtime: task %v failed %d times, last: %w", e.ref, t.fails, e.Err))
		return
	}
	j.tr.Emit(obs.Event{Kind: obs.TaskFailed, Stage: s.ps.ID, Frag: e.ref.Frag,
		Task: e.ref.Index, Attempt: e.ref.Attempt, Exec: t.exec, Note: e.Err.Error()})
	jm.requeue(j, s, e.ref.Frag, e.ref.Index, t)
	j.tr.Emit(obs.Event{Kind: obs.TaskRelaunched, Stage: s.ps.ID, Frag: e.ref.Frag,
		Task: e.ref.Index, Attempt: t.attempt})
}

func (jm *JobManager) onPullFailed(j *jobRun, e evPullFailed) {
	s, t := jm.taskAt(j, e.ref)
	if s == nil || t == nil {
		return
	}
	if t.state == tCommitted {
		s.frags[e.ref.Frag].nCommitted--
	}
	// A failed CAS pull on a skipped task revokes the hit: relaunch it
	// for real rather than re-skipping into the same failure.
	revokeTaskSkip(s, e.ref.Frag, e.ref.Index)
	jm.requeue(j, s, e.ref.Frag, e.ref.Index, t)
	j.tr.Emit(obs.Event{Kind: obs.TaskRelaunched, Stage: s.ps.ID, Frag: e.ref.Frag,
		Task: e.ref.Index, Attempt: t.attempt, Note: "pull_failed"})
}

// onReservedTaskDone accepts completions while the stage is still
// starting receivers too: StartReceiver runs the receiver before the
// master has handled the stage's last ready event, and a receiver with
// nothing to wait for (a reserved root fed only by cross-stage inputs) can
// finalize first.
func (jm *JobManager) onReservedTaskDone(j *jobRun, e evReservedTaskDone) {
	s := jm.stageAt(j, e.Stage, e.Gen)
	if s == nil || (s.status != sRunning && s.status != sStartingReceivers) || s.recvDone[e.Index] {
		return
	}
	s.recvDone[e.Index] = true
	s.nDone++
	if s.outChunks != nil && e.Chunk != "" {
		s.outChunks[e.Index] = e.Chunk
	}
	jm.trackReceivers(j, -1)
	j.tr.Emit(obs.Event{Kind: obs.TaskFinished, Stage: s.ps.ID, Frag: obs.ReservedFrag,
		Task: e.Index, Exec: s.recvExecs[e.Index], Bytes: e.Bytes})
	if s.nDone == len(s.recvExecs) {
		s.status = sDone
		j.unmarkRunnable(s)
		jm.markStageDone(j, s)
		s.outputExecs = append([]string(nil), s.recvExecs...)
		jm.commitStage(j, s)
		j.tr.Emit(obs.Event{Kind: obs.StageComplete, Stage: s.ps.ID})
		jm.replicateProgress(j)
		jm.checkAllDone(j)
	}
}

func (jm *JobManager) onResult(j *jobRun, e evResult) {
	s := jm.stageAt(j, e.Stage, e.Gen)
	if s == nil || s.status != sRunning || s.ps.RootReserved {
		return
	}
	fr := s.frags[s.ps.RootFragment]
	t := fr.tasks[e.Index]
	if t.attempt != e.Attempt || t.state == tCommitted {
		return
	}
	t.state = tCommitted
	s.results[e.Index] = e.Payload
	s.nResults++
	j.tr.Emit(obs.Event{Kind: obs.PushCommitted, Stage: s.ps.ID, Frag: s.ps.RootFragment,
		Task: e.Index, Attempt: e.Attempt, Exec: t.exec, Bytes: int64(len(e.Payload)),
		Note: "result"})
	if s.nResults == len(fr.tasks) {
		s.status = sDone
		j.unmarkRunnable(s)
		jm.markStageDone(j, s)
		j.tr.Emit(obs.Event{Kind: obs.StageComplete, Stage: s.ps.ID})
		jm.replicateProgress(j)
		jm.checkAllDone(j)
	}
}

func (jm *JobManager) checkAllDone(j *jobRun) {
	for _, s := range j.stages {
		if s.status != sDone {
			return
		}
	}
	j.finished = true
}

// scheduleAll starts ready pending stages (per job, in admission order)
// and then assigns waiting tasks across jobs with the weighted-fair
// scheduler. Unlike the pre-refactor full rescan, both passes walk
// incrementally maintained sets (sched.go) — readyStages instead of a
// status scan with per-stage parent checks, runnable bitsets instead of
// per-round queue rebuilds — so an event that changed nothing costs
// O(jobs), not O(total tasks).
func (jm *JobManager) scheduleAll() {
	jm.cSchedRounds.Add(1)
	for _, id := range jm.order {
		j := jm.jobs[id]
		if j.finished {
			continue
		}
		for sid := j.readyStages.next(0); sid >= 0; sid = j.readyStages.next(sid + 1) {
			if jm.startStage(j, j.stages[sid]) {
				j.readyStages.clear(sid)
			}
		}
	}
	jm.assignTasks()
}

// startStage launches one ready stage's generation. It reports false
// when the stage must keep waiting (a reserved-root stage with no
// reserved container yet), in which case it stays in readyStages and is
// retried on later passes.
func (jm *JobManager) startStage(j *jobRun, s *stageRun) bool {
	ps := s.ps
	if ps.RootReserved && len(jm.reservedOrder) == 0 {
		return false // wait for a reserved container
	}
	s.gen++
	note := ""
	if s.restarts > 0 {
		note = fmt.Sprintf("restart %d", s.restarts)
	}
	j.tr.Emit(obs.Event{Kind: obs.StageScheduled, Stage: ps.ID, Attempt: s.restarts, Note: note})
	s.frags = make([]*fragRun, len(ps.Fragments))
	total := 0
	for i, f := range ps.Fragments {
		fr := &fragRun{tasks: make([]*taskRun, f.Parallelism)}
		for j := range fr.tasks {
			fr.tasks[j] = &taskRun{state: tWaiting}
		}
		s.frags[i] = fr
		total += f.Parallelism
	}

	if ps.RootReserved {
		r := ps.RootParallelism
		s.recvExecs = make([]string, r)
		s.recvReady = make([]bool, r)
		s.recvDone = make([]bool, r)
		s.nReady, s.nDone = 0, 0
		if jm.commits != nil && ps.CacheKey != "" {
			s.outChunks = make([]string, r)
		}
		for i := 0; i < r; i++ {
			s.recvExecs[i] = jm.reservedOrder[jm.rrRecv%len(jm.reservedOrder)]
			jm.rrRecv++
		}
		total += r
		expected := 0
		for _, f := range ps.Fragments {
			expected += f.Parallelism
		}
		// Input locations are cached for the generation's lifetime (see
		// the stageRun.inputLocs invariant) and shared by reference into
		// every receiver and task spec.
		s.inputLocs = jm.inputLocsFor(j, ps)
		// Reserved tasks are scheduled and set up first so they can
		// receive pushed outputs (§3.2.3).
		s.status = sStartingReceivers
		jm.trackReceivers(j, r)
		for i := 0; i < r; i++ {
			j.tr.Emit(obs.Event{Kind: obs.TaskLaunched, Stage: ps.ID, Frag: obs.ReservedFrag,
				Task: i, Exec: s.recvExecs[i]})
			j.execs[s.recvExecs[i]].StartReceiver(recvSpec{
				Stage: ps.ID, Gen: s.gen, Index: i,
				Expected:  expected,
				InputLocs: s.inputLocs,
				PullMode:  j.cfg.PullBoundaries,
			})
		}
	} else {
		s.results = make([][]byte, ps.Fragments[ps.RootFragment].Parallelism)
		s.nResults = 0
		s.inputLocs = jm.inputLocsFor(j, ps)
		s.status = sRunning
		j.markRunnable(s)
	}

	if s.gen == 1 {
		j.met.OriginalTasks.Add(int64(total))
	} else {
		j.met.RelaunchedTasks.Add(int64(total))
	}
	return true
}

func (jm *JobManager) inputLocsFor(j *jobRun, ps *core.PhysStage) map[int]stageLoc {
	locs := make(map[int]stageLoc)
	for _, si := range ps.Inputs {
		if _, ok := locs[si.FromStage]; ok {
			continue
		}
		p := j.stages[si.FromStage]
		// A skipped parent has no outputExecs; its partitions resolve to
		// commit-store chunks instead (skipChunks is immutable, shared by
		// reference).
		locs[si.FromStage] = stageLoc{Gen: p.gen,
			Execs:  append([]string(nil), p.outputExecs...),
			Chunks: p.skipChunks}
	}
	return locs
}

// maxDeficitRounds caps how much unused scheduling credit a job may
// bank, in multiples of its weight, so a job that was slot-starved for a
// while cannot later monopolize the fleet in one burst.
const maxDeficitRounds = 4

// assignTasks hands waiting fragment tasks to executors. With a single
// runnable job it degenerates to the classic greedy pass:
// cache-preferred placement first, then round-robin over free slots
// (§3.2.3). With several admitted jobs it runs deficit-weighted
// round-robin across their task queues: each visit credits a job's
// deficit by its weight and launches one task per whole credit, so slots
// divide proportionally to weight and a large job cannot starve a small
// one. Unspent credit (no free slot, or weight < 1) carries to the next
// round, capped at weight*maxDeficitRounds.
//
// The queues are the per-job runnable bitsets: iteration follows dense
// (stage, fragment, task) order, identical to the legacy per-round
// rescan, and a job is exhausted when its cursor passes its last set
// bit. qScratch reuses one backing array for the round's queue list so
// the steady state allocates nothing.
func (jm *JobManager) assignTasks() {
	pool := jm.transientOrder
	kind := cluster.Transient
	if len(pool) == 0 && jm.cl.TransientConfigured() == 0 {
		pool = jm.reservedOrder
		kind = cluster.Reserved
	}
	if len(pool) == 0 {
		return
	}

	queues := jm.qScratch[:0]
	for _, id := range jm.order {
		j := jm.jobs[id]
		if j.finished || j.runnable.empty() {
			continue
		}
		j.qNext = 0
		queues = append(queues, j)
	}
	jm.qScratch = queues
	defer func() {
		for i := range queues {
			queues[i] = nil // drop jobRun refs so finished jobs are collectable
		}
	}()
	if len(queues) == 0 {
		return
	}

	if len(queues) == 1 {
		// Single runnable job: no fairness to arbitrate.
		j := queues[0]
		j.deficit = 0
		for di := j.runnable.next(j.qNext); di >= 0; di = j.runnable.next(j.qNext) {
			if !jm.launchDense(j, di, pool, kind) {
				return // no free slots anywhere
			}
			j.qNext = di + 1
		}
		return
	}

	idle := 0
	for idle < len(queues) {
		j := queues[jm.rrJob%len(queues)]
		jm.rrJob++
		di := j.runnable.next(j.qNext)
		if di < 0 {
			j.deficit = 0
			idle++
			continue
		}
		j.deficit += j.weight
		if limit := j.weight * maxDeficitRounds; j.deficit > limit {
			j.deficit = limit
		}
		progressed := false
		for j.deficit >= 1 && di >= 0 {
			if !jm.launchDense(j, di, pool, kind) {
				return // no free slots anywhere; credit persists
			}
			j.deficit--
			j.qNext = di + 1
			progressed = true
			di = j.runnable.next(j.qNext)
		}
		if progressed {
			idle = 0
		}
	}
}

// launchDense launches the waiting task at dense index di if a slot is
// free; it reports false only when the whole fleet is out of slots.
func (jm *JobManager) launchDense(j *jobRun, di int, pool []string, kind cluster.Kind) bool {
	jm.cTasksScanned.Add(1)
	s, fi, ti := j.locate(di)
	t := s.frags[fi].tasks[ti]
	exec := jm.pickExecutor(j, pool, kind, s.ps, s.ps.Fragments[fi], ti)
	if exec == "" {
		return false
	}
	j.runnable.clear(di)
	t.state = tRunning
	t.exec = exec
	t.started = time.Now()
	jm.slotsFree[exec]--
	jm.freeSlots[kind]--
	j.tr.Emit(obs.Event{Kind: obs.TaskLaunched, Stage: s.ps.ID, Frag: fi,
		Task: ti, Attempt: t.attempt, Exec: exec})
	ref := taskRef{Job: j.id, Stage: s.ps.ID, Gen: s.gen, Frag: fi, Index: ti, Attempt: t.attempt}
	jm.assignments[ref] = exec
	taskKey := ""
	if jm.commits != nil && s.ps.TaskKeys != nil && fi < len(s.ps.TaskKeys) && s.ps.TaskKeys[fi] != nil {
		taskKey = s.ps.TaskKeys[fi][ti]
	}
	j.execs[exec].Launch(taskSpec{
		Stage: s.ps.ID, Gen: s.gen, Frag: fi, Index: ti, Attempt: t.attempt,
		InputLocs: s.inputLocs,
		Receivers: s.recvExecs,
		Terminal:  !s.ps.RootReserved,
		TaskKey:   taskKey,
	})
	return true
}

// pickExecutor prefers an executor that has any of the task's cacheable
// inputs cached (§3.2.7 cache-aware scheduling; ties broken by lowest
// executor id so placement is deterministic), then falls back to
// round-robin over executors with free slots. A saturated pool is
// detected from the per-kind free-slot index without scanning it; the
// round-robin cursor still advances by the scan length so launch
// positions match the legacy full scan exactly.
func (jm *JobManager) pickExecutor(j *jobRun, pool []string, kind cluster.Kind, ps *core.PhysStage, frag *core.Fragment, taskIdx int) string {
	if !j.cfg.DisableCache {
		for _, key := range taskCacheKeys(j.plan, ps, frag, taskIdx) {
			best := ""
			for exID := range j.cacheIndex[key] {
				if jm.slotsFree[exID] > 0 && jm.kinds[exID] == kind && (best == "" || exID < best) {
					best = exID
				}
			}
			if best != "" {
				return best
			}
		}
	}
	if jm.freeSlots[kind] == 0 {
		jm.cSlotIndexHits.Add(1)
		jm.rrTask += len(pool)
		return ""
	}
	for i := 0; i < len(pool); i++ {
		exID := pool[jm.rrTask%len(pool)]
		jm.rrTask++
		if jm.slotsFree[exID] > 0 {
			return exID
		}
	}
	return ""
}

// taskCacheKeys lists the cacheable inputs of one fragment task.
func taskCacheKeys(plan *core.Plan, ps *core.PhysStage, frag *core.Fragment, taskIdx int) []recache.Key {
	var keys []recache.Key
	for _, opID := range frag.Ops {
		if rd, ok := plan.Graph.Vertex(opID).Op.(*dataflow.ReadOp); ok && rd.Cached {
			keys = append(keys, recache.Key{Vertex: opID, Partition: taskIdx})
		}
		for _, si := range ps.InputsTo(opID) {
			if !si.Cached {
				continue
			}
			switch si.Dep {
			case dag.OneToOne:
				keys = append(keys, recache.Key{Vertex: si.FromVertex, Partition: taskIdx})
			case dag.OneToMany:
				keys = append(keys, recache.Key{Vertex: si.FromVertex, Partition: recache.Broadcast})
			}
		}
	}
	return keys
}
