package runtime

import (
	"fmt"
	"testing"

	"pado/internal/cluster"
)

// TestRoundRobinAcrossJobs pins the cross-job scheduling rule: jobs take
// turns, one task each. Three jobs each have more waiting tasks than the
// fleet has slots. Slots free both all at once and one per scheduling
// round. While all three jobs are runnable, their launch counts differ
// by at most one after every launch, and each job launches its own tasks
// in dense (stage, fragment, task) order.
func TestRoundRobinAcrossJobs(t *testing.T) {
	const nodes, slots = 4, 2
	sizes := []int{20, 30, 40} // each more than the fleet's 8 slots
	total := 0
	for _, n := range sizes {
		total += n
	}
	cl, err := cluster.New(cluster.Config{Transient: nodes, Reserved: 1})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	jm := newManager(cl, ManagerConfig{})
	var handles []*JobHandle
	for _, n := range sizes {
		h, err := jm.SubmitPlan(benchPlan(t, n), Config{DisableCache: true}, JobOptions{})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jm.handle(<-jm.events)
		handles = append(handles, h)
	}
	// The ring never wraps, so its buffer is the whole launch log and its
	// head is the oldest task still running.
	ring := newRefRing(total)
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("t%d", i)
		jm.registerNode(id, cluster.Transient, slots)
		for _, h := range handles {
			h.j.execs[id] = &benchLauncher{job: h.id, ring: ring}
		}
	}

	// Every slot is free at once when the fleet joins. After that, the
	// test alternates: two rounds that each free the oldest running
	// task's slot through the event handler, then one round that frees
	// every running task's slot before a single scheduling pass.
	jm.scheduleAll()
	for round := 0; ring.head < ring.tail; round++ {
		if round%3 == 2 {
			for ring.head < ring.tail {
				ref := ring.pop().Ref
				jm.onTaskComputed(jm.jobs[ref.Job], evTaskComputed{ref: ref, Exec: jm.assignments[ref]})
			}
			jm.scheduleAll()
			continue
		}
		ref := ring.pop().Ref
		jm.handle(newTaskComputed(ref, jm.assignments[ref], nil))
	}
	if ring.tail != total {
		t.Fatalf("launched %d tasks, want %d", ring.tail, total)
	}

	counts := make(map[int]int)
	last := make(map[int]taskRef)
	allRunnable := true
	for i, lr := range ring.buf {
		ref := lr.Ref
		if prev, ok := last[ref.Job]; ok && !denseBefore(prev, ref) {
			t.Fatalf("launch %d: job %d launched %+v after %+v, out of dense order", i, ref.Job, ref, prev)
		}
		last[ref.Job] = ref
		counts[ref.Job]++
		if !allRunnable {
			continue
		}
		lo, hi := counts[handles[0].id], counts[handles[0].id]
		for _, h := range handles[1:] {
			lo, hi = min(lo, counts[h.id]), max(hi, counts[h.id])
		}
		if hi-lo > 1 {
			t.Fatalf("after launch %d the per-job launch counts are %v: not round-robin", i, counts)
		}
		for k, h := range handles {
			if counts[h.id] == sizes[k] {
				allRunnable = false // job k has nothing left to launch
			}
		}
	}
}

// denseBefore reports whether task a precedes task b in a job's dense
// (stage, fragment, task) order.
func denseBefore(a, b taskRef) bool {
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Frag != b.Frag {
		return a.Frag < b.Frag
	}
	return a.Index < b.Index
}
