package runtime

import (
	"fmt"
	"slices"
	"time"

	"pado/internal/core"
	"pado/internal/metrics"
	"pado/internal/obs"
)

// This file is a verbatim snapshot of the pre-refactor scheduling pass
// (scheduleAll / parentsDone / assignTasks / launchPending /
// pickExecutor as of PR 8) kept as a behavioral oracle: the equivalence
// tests in sched_oracle_test.go drive the production scheduler and
// this legacy full-rescan one through identical scripted event
// sequences and require identical launch logs.
//
// One deliberate substitution: the legacy cache-preferred path iterated
// a Go map (random order) and returned the first eligible executor;
// both this oracle and the production scheduler now break ties by
// lowest executor id, so cache-placement scenarios are deterministic
// and comparable. That is the only intended behavior change of the
// refactor.

func (jm *JobManager) legacyScheduleAll() {
	for _, id := range jm.order {
		j := jm.jobs[id]
		if j.finished {
			continue
		}
		for _, s := range j.stages {
			if s.status == sPending && jm.legacyParentsDone(j, s) {
				jm.legacyStartStage(j, s)
			}
		}
	}
	jm.legacyAssignTasks()
}

func (jm *JobManager) legacyParentsDone(j *jobRun, s *stageRun) bool {
	for _, pid := range s.ps.Parents {
		if j.stages[pid].status != sDone {
			return false
		}
	}
	return true
}

func (jm *JobManager) legacyStartStage(j *jobRun, s *stageRun) {
	ps := s.ps
	if ps.RootReserved && len(jm.reservedOrder) == 0 {
		return // wait for a reserved container
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
		for i := 0; i < r; i++ {
			s.recvExecs[i] = jm.reservedOrder[jm.rrRecv%len(jm.reservedOrder)]
			jm.rrRecv++
		}
		total += r
		expected := 0
		for _, f := range ps.Fragments {
			expected += f.Parallelism
		}
		locs := jm.inputLocsFor(j, ps)
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
				InputLocs: locs,
			})
		}
	} else {
		s.results = make([][]byte, ps.Fragments[ps.RootFragment].Parallelism)
		s.nResults = 0
		s.status = sRunning
	}

	if s.gen == 1 {
		j.met.Counter(metrics.NameOriginalTasks).Add(int64(total))
	} else {
		j.met.Counter(metrics.NameRelaunchedTasks).Add(int64(total))
	}
}

// legacyPendingTask locates one waiting fragment task.
type legacyPendingTask struct {
	s      *stageRun
	fi, ti int
}

// legacyJobQueue is one job's runnable-task queue for a scheduling
// round.
type legacyJobQueue struct {
	j     *jobRun
	tasks []legacyPendingTask
	next  int
}

func (jm *JobManager) legacyAssignTasks() {
	pool := jm.transientOrder
	if len(pool) == 0 && jm.cl.TransientConfigured() == 0 {
		pool = jm.reservedOrder
	}
	if len(pool) == 0 {
		return
	}

	var queues []*legacyJobQueue
	for _, id := range jm.order {
		j := jm.jobs[id]
		if j.finished {
			continue
		}
		var tasks []legacyPendingTask
		for _, s := range j.stages {
			if s.status != sRunning {
				continue
			}
			for fi, fr := range s.frags {
				for ti, t := range fr.tasks {
					if t.state == tWaiting {
						tasks = append(tasks, legacyPendingTask{s: s, fi: fi, ti: ti})
					}
				}
			}
		}
		if len(tasks) > 0 {
			queues = append(queues, &legacyJobQueue{j: j, tasks: tasks})
		}
	}
	if len(queues) == 0 {
		return
	}
	locs := make(map[*stageRun]map[int]stageLoc)

	for idle := 0; idle < len(queues); jm.rrJob++ {
		q := queues[jm.rrJob%len(queues)]
		if q.next >= len(q.tasks) {
			idle++
			continue
		}
		if !jm.legacyLaunchPending(q.j, q.tasks[q.next], pool, locs) {
			return // no free slots anywhere
		}
		q.next++
		idle = 0
	}
}

func (jm *JobManager) legacyLaunchPending(j *jobRun, p legacyPendingTask, pool []string, locsCache map[*stageRun]map[int]stageLoc) bool {
	s := p.s
	t := s.frags[p.fi].tasks[p.ti]
	if t.state != tWaiting {
		return true
	}
	exec := jm.legacyPickExecutor(j, pool, s.ps, s.ps.Fragments[p.fi], p.ti)
	if exec == "" {
		return false
	}
	locs := locsCache[s]
	if locs == nil {
		locs = jm.inputLocsFor(j, s.ps)
		locsCache[s] = locs
	}
	t.state = tRunning
	t.exec = exec
	t.started = time.Now()
	jm.slotsFree[exec]--
	j.tr.Emit(obs.Event{Kind: obs.TaskLaunched, Stage: s.ps.ID, Frag: p.fi,
		Task: p.ti, Attempt: t.attempt, Exec: exec})
	ref := taskRef{Job: j.id, Stage: s.ps.ID, Gen: s.gen, Frag: p.fi, Index: p.ti, Attempt: t.attempt}
	jm.assignments[ref] = exec
	j.execs[exec].Launch(taskSpec{
		Stage: s.ps.ID, Gen: s.gen, Frag: p.fi, Index: p.ti, Attempt: t.attempt,
		InputLocs: locs,
		Receivers: append([]string(nil), s.recvExecs...),
		Terminal:  !s.ps.RootReserved,
	})
	return true
}

func (jm *JobManager) legacyPickExecutor(j *jobRun, pool []string, ps *core.PhysStage, frag *core.Fragment, taskIdx int) string {
	if !j.cfg.DisableCache {
		for _, key := range taskCacheKeys(j.plan, ps, frag, taskIdx) {
			best := ""
			for exID := range j.cacheIndex[key] {
				if jm.slotsFree[exID] > 0 && slices.Contains(pool, exID) && (best == "" || exID < best) {
					best = exID
				}
			}
			if best != "" {
				return best
			}
		}
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
