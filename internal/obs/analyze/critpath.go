package analyze

import (
	"time"
)

// Segment classes: where a slice of the critical path's wall time went.
const (
	ClassCompute  = "compute"  // a task (or receiver) was executing
	ClassPush     = "push"     // an output was escaping to receivers
	ClassFetch    = "fetch"    // an input was being transferred
	ClassSched    = "sched"    // scheduling gap: queueing, receiver setup, stage handoff
	ClassRelaunch = "relaunch" // waiting out an eviction: requeue + destroyed work
)

// Classes lists the segment classes in canonical order.
var Classes = []string{ClassCompute, ClassPush, ClassFetch, ClassSched, ClassRelaunch}

// Segment is one contiguous slice of the critical path.
type Segment struct {
	Class   string `json:"class"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Stage   int    `json:"stage"`
	Frag    int    `json:"frag"`
	Task    int    `json:"task"`
	Attempt int    `json:"attempt"`
	Exec    string `json:"exec,omitempty"`
	Note    string `json:"note,omitempty"`
}

// Dur returns the segment's duration.
func (s Segment) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// walker performs the backward causal walk. It maintains the invariant
// that w.t is the start of the last emitted segment, so the emitted
// segments tile [0, jobEnd] exactly.
type walker struct {
	m     *model
	t     time.Duration
	segs  []Segment // in reverse time order
	steps int
}

const maxWalkSteps = 100_000

// seg emits one segment ending at the walker's current time and starting
// at start (clamped into [0, w.t]), then moves the walker to start.
func (w *walker) seg(start time.Duration, class string, at attemptKey, exec, note string) {
	if start < 0 {
		start = 0
	}
	if start > w.t {
		start = w.t
	}
	if start < w.t {
		w.segs = append(w.segs, Segment{
			Class:   class,
			StartNS: int64(start),
			EndNS:   int64(w.t),
			Stage:   at.Stage,
			Frag:    at.Frag,
			Task:    at.Task,
			Attempt: at.Attempt,
			Exec:    exec,
			Note:    note,
		})
	}
	w.t = start
}

func (w *walker) bail(note string) {
	w.seg(0, ClassSched, attemptKey{Stage: -1, Frag: -1, Task: -1}, "", note)
}

func (w *walker) budget() bool {
	w.steps++
	return w.steps <= maxWalkSteps
}

// criticalPath walks backward from the job's last stage completion and
// returns the segments in forward time order, tiling [0, end] exactly.
func criticalPath(m *model) []Segment {
	w := &walker{m: m, t: m.jobEnd}
	// The stage whose completion defines job end.
	var last stageKey
	lastT := unseen
	for _, sk := range m.stageKeys {
		s := m.stages[sk]
		if s.complete != unseen && s.complete >= lastT {
			last, lastT = sk, s.complete
		}
	}
	if lastT == unseen {
		// No stage ever completed (timeout/abort): attribute everything
		// to one unexplained segment.
		w.bail("no_stage_completed")
	} else {
		w.seg(lastT, ClassSched, attemptKey{Stage: last.ID, Frag: -1, Task: -1}, "", "drain")
		w.explainStageDone(last)
	}
	// Reverse into forward order.
	for i, j := 0, len(w.segs)-1; i < j; i, j = i+1, j-1 {
		w.segs[i], w.segs[j] = w.segs[j], w.segs[i]
	}
	return w.segs
}

// explainStageDone explains why stage sk completed at w.t.
func (w *walker) explainStageDone(sk stageKey) {
	if !w.budget() {
		w.bail("walk_truncated")
		return
	}
	m := w.m

	// Reserved-root stages complete when their last receiver finalizes.
	var rAtt *attempt
	rT := unseen
	var cAtt *attempt
	cT := unseen
	var fAtt *attempt
	fT := unseen
	for _, a := range m.byStage[sk] {
		if a.finish != unseen && a.finish <= w.t {
			if a.key.Frag == reservedFrag {
				if a.finish > rT {
					rAtt, rT = a, a.finish
				}
			} else if a.finish > fT {
				fAtt, fT = a, a.finish
			}
		}
		if a.commit != unseen && a.commit <= w.t && a.key.Frag != reservedFrag {
			if a.commit > cT {
				cAtt, cT = a, a.commit
			}
		}
	}

	if rAtt != nil {
		// Receiver finalize gated stage completion.
		w.seg(rT, ClassCompute, rAtt.key, rAtt.exec, "finalize")
		// What gated the receiver: the last committed fragment output,
		// or (skipped-task chunk pulls / broadcast-input stages) its last
		// fetch.
		spans := m.fetchSpansIn(rAtt.exec, launchOr(rAtt, 0), w.t)
		var lastFetch span
		haveFetch := false
		if len(spans) > 0 {
			lastFetch = spans[len(spans)-1]
			haveFetch = true
		}
		if cAtt != nil && (!haveFetch || cT >= lastFetch.end) {
			w.seg(cT, ClassCompute, rAtt.key, rAtt.exec, "receiver_merge")
			w.explainCommit(cAtt)
			return
		}
		if haveFetch {
			w.seg(lastFetch.end, ClassCompute, rAtt.key, rAtt.exec, "receiver_merge")
			w.seg(lastFetch.start, ClassFetch, rAtt.key, rAtt.exec, "receiver_pull")
			w.seg(launchOr(rAtt, 0), ClassCompute, rAtt.key, rAtt.exec, "receiver")
			w.explainTaskStart(rAtt)
			return
		}
		w.seg(launchOr(rAtt, 0), ClassCompute, rAtt.key, rAtt.exec, "receiver")
		w.explainTaskStart(rAtt)
		return
	}

	// No receivers: terminal-transient Pado stages and sparklike stages.
	if cAtt != nil && cT >= fT {
		w.seg(cT, ClassSched, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "collect")
		w.explainCommit(cAtt)
		return
	}
	if fAtt != nil {
		w.seg(fT, ClassSched, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "stage_done")
		w.explainRun(fAtt, fT)
		w.explainTaskStart(fAtt)
		return
	}
	// Nothing attributable inside the stage.
	s := w.m.stages[sk]
	if s != nil && s.sched != unseen {
		w.seg(s.sched, ClassSched, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "empty_stage")
		w.explainStageSched(sk)
		return
	}
	w.bail("unexplained_stage")
}

// explainCommit explains an attempt's commit at w.t: the push before it,
// the compute (with fetch sub-intervals) before the push, and the
// attempt's admission.
func (w *walker) explainCommit(a *attempt) {
	if !w.budget() {
		w.bail("walk_truncated")
		return
	}
	pushFrom := a.commit
	if a.pushStart != unseen && a.pushStart < pushFrom && a.pushStart >= launchOr(a, 0) {
		pushFrom = a.pushStart
	}
	w.seg(pushFrom, ClassPush, a.key, a.exec, "push_commit")
	w.explainRun(a, pushFrom)
	w.explainTaskStart(a)
}

// explainRun tiles [a.launch, upto] with compute segments, carving out
// the executor's fetch spans that overlap the window.
func (w *walker) explainRun(a *attempt, upto time.Duration) {
	if !w.budget() {
		w.bail("walk_truncated")
		return
	}
	launch := launchOr(a, 0)
	if upto > w.t {
		upto = w.t
	}
	spans := w.m.fetchSpansIn(a.exec, launch, upto)
	for i := len(spans) - 1; i >= 0; i-- {
		w.seg(spans[i].end, ClassCompute, a.key, a.exec, "compute")
		w.seg(spans[i].start, ClassFetch, a.key, a.exec, "input_fetch")
	}
	w.seg(launch, ClassCompute, a.key, a.exec, "compute")
}

// explainTaskStart explains why attempt a launched at w.t (== a.launch).
func (w *walker) explainTaskStart(a *attempt) {
	if !w.budget() {
		w.bail("walk_truncated")
		return
	}
	m := w.m
	sk := stageKey{a.key.Stage, a.key.Epoch}
	s := m.stages[sk]

	if a.key.Attempt > 0 {
		prevKey := a.key
		prevKey.Attempt--
		if prev, ok := m.attempts[prevKey]; ok && prev.relaunch != unseen && prev.launch != unseen {
			// Requeue wait: destruction -> new launch.
			w.seg(prev.relaunch, ClassRelaunch, a.key, relaunchBlame(prev), "requeue_wait")
			// The destroyed attempt's work sits on the path: it ran from
			// its launch until the eviction/failure destroyed it.
			note := "wasted_compute"
			if prev.relaunchNote != "" {
				note = "wasted_compute:" + prev.relaunchNote
			}
			w.seg(prev.launch, ClassRelaunch, prev.key, prev.exec, note)
			w.explainTaskStart(prev)
			return
		}
	}

	if s != nil && s.sched != unseen {
		gate := s.sched
		viaReady := false
		if s.receiverReady != unseen && s.receiverReady > gate && s.receiverReady <= w.t {
			gate = s.receiverReady
			viaReady = true
		}
		w.seg(gate, ClassSched, a.key, "", "task_queue")
		if viaReady {
			w.seg(s.sched, ClassSched, a.key, "", "receiver_setup")
		}
		w.explainStageSched(sk)
		return
	}
	w.bail("unscheduled_stage")
}

// explainStageSched explains why stage epoch sk was scheduled at w.t.
func (w *walker) explainStageSched(sk stageKey) {
	if !w.budget() {
		w.bail("walk_truncated")
		return
	}
	m := w.m

	if sk.Epoch > 1 {
		// A restart: caused by a reserved-container or receiver failure.
		prev := m.stages[stageKey{sk.ID, sk.Epoch - 1}]
		cause, haveCause := m.latestCauseBefore(w.t)
		if prev != nil && prev.sched != unseen {
			if haveCause && cause.t >= prev.sched {
				w.seg(cause.t, ClassRelaunch, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "stage_restart:"+cause.note)
				w.seg(prev.sched, ClassRelaunch, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "lost_stage_work")
			} else {
				w.seg(prev.sched, ClassRelaunch, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "stage_restart")
			}
			w.explainStageSched(prev.key)
			return
		}
	}

	// First schedule: gated by the slowest parent (or, without a plan,
	// by whatever stage completed most recently).
	var pk stageKey
	var pc time.Duration
	found := false
	if parents, ok := m.opts.StageParents[sk.ID]; ok && len(parents) > 0 {
		for _, p := range parents {
			if k, c, ok2 := m.latestCompleteOf(p, w.t); ok2 && (!found || c > pc) {
				pk, pc, found = k, c, true
			}
		}
	} else if m.opts.StageParents == nil {
		pk, pc, found = m.latestCompleteBefore(w.t, sk.ID)
	}
	if found {
		w.seg(pc, ClassSched, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "stage_gap")
		w.explainStageDone(pk)
		return
	}
	w.seg(0, ClassSched, attemptKey{Stage: sk.ID, Frag: -1, Task: -1}, "", "job_setup")
}

// relaunchBlame names the executor blamed for a relaunch segment: the
// evicted container when the relaunch event recorded one, else the
// executor the destroyed attempt ran on.
func relaunchBlame(prev *attempt) string {
	if prev.relaunchExec != "" {
		return prev.relaunchExec
	}
	return prev.exec
}

func launchOr(a *attempt, def time.Duration) time.Duration {
	if a.launch == unseen {
		return def
	}
	return a.launch
}

// reservedFrag mirrors obs.ReservedFrag without re-importing it in hot
// comparisons.
const reservedFrag = -1
