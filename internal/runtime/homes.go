package runtime

import (
	"slices"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/exec"
)

// Home reserved containers (DESIGN.md §15). Algorithm 1 puts a
// parallelism-1 combine and a one-partition broadcast on one reserved
// task each, so every executor's cover lands on one reserved NIC and every
// executor reads the broadcast out of one. Each transient executor instead
// has a home: the reserved container at its ordinal modulo the stage
// generation's live reserved containers. It pushes its cover to a combine
// shard there and reads replicated broadcasts from there, so both
// directions spread over every reserved NIC. No task moves: the shards are
// more receivers of the stage's one reserved task, and the replicas are
// copies of a finished output. Each half engages only where the plan and
// the cell say it lowers the most-loaded reserved NIC's bytes.

// shardsCombine reports whether stage ps's fan-in is sharded over the
// reserved containers: its root is a parallelism-1 combine of folded
// covers (exec.Combiner) fed by one transient fragment and by nothing
// else, and sharding lowers the root's ingress. With n senders over r
// reserved containers that ingress falls from n covers to the root's own
// ⌈n/r⌉ plus one section from each of the r-1 shards. The commit-store
// path and unbuffered covers keep one receiver.
func (jm *JobManager) shardsCombine(j *jobRun, ps *core.PhysStage) bool {
	if jm.commits != nil || j.cfg.DisablePartialAggregation || !ps.RootReserved ||
		ps.RootParallelism != 1 || len(ps.Fragments) != 1 || len(ps.InputsTo(ps.Root)) > 0 ||
		exec.Combiner(j.plan.Graph, ps.Root) == nil {
		return false
	}
	n := min(ps.Fragments[0].Parallelism, len(jm.transientOrder))
	r := len(jm.reservedOrder)
	return r >= 2 && (n+r-1)/r+r-1 < n
}

// broadcastReplicas returns the reserved containers that keep a copy of
// every partition of stage s's output, owners included, or nil when none
// should. Copies pay off for an output that transient fragments read
// whole as a one-to-many side input, when serving each home's share of
// the k readers plus sending each owner's partitions to the other homes
// loads no reserved NIC as much as the owners serving all k readers do.
// An output spread evenly over the reserved containers, as ALS's factors
// are, stays where it is.
func (jm *JobManager) broadcastReplicas(j *jobRun, s *stageRun) []string {
	r := len(jm.reservedOrder)
	if jm.commits != nil || r < 2 {
		return nil
	}
	k := 0
	for _, c := range s.ps.Children {
		cs := j.plan.Stages[c]
		for _, f := range cs.Fragments {
			if readsWhole(cs, f, s.ps.ID) {
				k = max(k, min(f.Parallelism, len(jm.transientOrder)))
			}
		}
	}
	if k == 0 {
		return nil
	}
	owned := make(map[string]int)
	for _, e := range s.recvExecs {
		owned[e]++
	}
	parts := len(s.recvExecs)
	served := (k + r - 1) / r * parts
	before, after := 0, 0
	for _, e := range jm.reservedOrder {
		before = max(before, k*owned[e])
		after = max(after, (r-1)*owned[e]+served)
	}
	if after >= before {
		return nil
	}
	return slices.Clone(jm.reservedOrder)
}

// readsWhole reports whether fragment f of stage cs reads stage from's
// output as a one-to-many side input.
func readsWhole(cs *core.PhysStage, f *core.Fragment, from int) bool {
	for _, op := range f.Ops {
		for _, si := range cs.InputsTo(op) {
			if si.FromStage == from && si.Dep == dag.OneToMany {
				return true
			}
		}
	}
	return false
}

// setHomes fixes a starting generation's homes and shards. The homes are
// the live reserved containers when the stage's fan-in is sharded or one
// of its inputs is replicated; pushTo[h] is what a task homed at h pushes
// to: the root receiver itself on the root's container, that container's
// shard elsewhere.
func (jm *JobManager) setHomes(j *jobRun, s *stageRun) {
	sharded := jm.shardsCombine(j, s.ps)
	replicated := false
	for _, loc := range s.inputLocs {
		replicated = replicated || loc.Replicas != nil
	}
	if !sharded && !replicated {
		return
	}
	s.homes = slices.Clone(jm.reservedOrder)
	if !sharded {
		return
	}
	s.pushTo = make([][]string, len(s.homes))
	for h, e := range s.homes {
		if e == s.recvExecs[0] {
			s.pushTo[h] = s.recvExecs
			continue
		}
		s.pushTo[h] = []string{e}
		s.shards = append(s.shards, e)
	}
}
