package runtime

import (
	"fmt"
	"sync/atomic"

	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// The commit plane (DESIGN.md §14) turns intermediate data from opaque
// per-run blocks into content-addressed, versioned commits, which is what
// lets a rerun skip the unchanged cone of its pipeline:
//
//   - the manager serves a storage.CommitStore over dedicated simnet
//     nodes, so commit traffic is bandwidth-accounted like any other
//     data-plane transfer and the store survives the cluster (the store
//     object is handed in via Config.Commits and outlives runs);
//   - at submission the master probes the store with the plan's stage
//     cache keys ("stage/<key>") and, where a stage misses, its per-task
//     keys ("task/<key>"); hits are pinned so concurrent deletion cannot
//     invalidate a running job's inputs;
//   - a stage-level hit marks the stage done before it ever schedules:
//     consumers resolve its partitions to CAS chunks instead of executor
//     stores, and nothing downstream can tell the difference;
//   - a task-level hit commits the task without launching it: the master
//     relays commit messages carrying chunk addresses, and receivers pull
//     the sections from the CAS (receiver.pull) instead of accepting pushes;
//   - on the write side, receivers put their finalized partitions as
//     chunks (evReservedTaskDone.Chunk) and the master commits the
//     assembled stage manifest; a content-addressable task pushes its
//     sections under its own cover — its output combined per receiver
//     where the stage root is a combine, raw otherwise — puts them as
//     per-receiver chunks and commits a task manifest (every other task
//     joins the executor's aggregation buffer). All writes are
//     best-effort: a failed put or commit only forfeits future reuse.
//
// Exactly-once survives unchanged: skipped stages never schedule, skipped
// tasks enter tCommitted directly with no executor attached (so eviction
// recovery ignores them), and a failed CAS pull reverts the skip through
// the existing evPullFailed relaunch path.
type commitPlane struct {
	store *storage.CommitStore
	svc   *storage.CommitService
	nodes []string
	// client is the master-side client, routed through the manager's
	// data plane.
	client *storage.CommitClient
	net    *simnet.Network
}

// casNodeCount is how many dedicated service nodes the plane adds: chunk
// addresses hash across them (CommitClient.nodeFor), so commit traffic is
// not bottlenecked on a single node's simnet bandwidth.
const casNodeCount = 2

// casPlaneSeq disambiguates node ids across managers sharing a network
// (or sequential managers whose nodes were not yet removed).
var casPlaneSeq atomic.Int64

func newCommitPlane(net *simnet.Network, store *storage.CommitStore, t storage.Transport) (*commitPlane, error) {
	seq := casPlaneSeq.Add(1)
	nodes := make([]*simnet.Node, 0, casNodeCount)
	ids := make([]string, 0, casNodeCount)
	for i := 0; i < casNodeCount; i++ {
		id := fmt.Sprintf("cas%d-%d", seq, i)
		n, err := net.AddNode(id)
		if err != nil {
			for _, old := range ids {
				net.RemoveNode(old)
			}
			return nil, fmt.Errorf("runtime: commit plane: %w", err)
		}
		nodes = append(nodes, n)
		ids = append(ids, id)
	}
	svc := storage.NewCommitService(store, nodes)
	if err := svc.Start(); err != nil {
		for _, id := range ids {
			net.RemoveNode(id)
		}
		return nil, err
	}
	return &commitPlane{
		store:  store,
		svc:    svc,
		nodes:  ids,
		client: storage.NewCommitClient(t, ids),
		net:    net,
	}, nil
}

func (cp *commitPlane) close() {
	cp.svc.Close()
	for _, id := range cp.nodes {
		cp.net.RemoveNode(id)
	}
}

// casNodes returns the plane's serving node ids (nil when disabled), for
// wiring executors' commit clients.
func (jm *JobManager) casNodes() []string {
	if jm.commits == nil {
		return nil
	}
	return jm.commits.nodes
}

// casClient returns the master-side commit client (nil when disabled).
func (jm *JobManager) casClient() *storage.CommitClient {
	if jm.commits == nil {
		return nil
	}
	return jm.commits.client
}

// Commit-store key namespaces. Stage commits map partition index to the
// single chunk holding that partition's encoded output; task commits map
// receiver index to the single chunk holding the sections the task pushed
// to that receiver.
func stageCommitKey(cacheKey string) string { return "stage/" + cacheKey }
func taskCommitKey(taskKey string) string   { return "task/" + taskKey }

// singleChunkParts validates the manifest shape this runtime writes: one
// chunk per part. Anything else (a foreign writer, a corrupted commit) is
// treated as a miss rather than trusted.
func singleChunkParts(m *storage.Manifest) bool {
	for _, p := range m.Parts {
		if len(p) != 1 {
			return false
		}
	}
	return true
}

// probeCommits probes the commit store for every cacheable stage of a
// newly built job and applies the resulting skips. It runs on the
// submitter's goroutine after the job's stages are built and BEFORE the
// job is published to the event loop, so it may freely mutate scheduling
// state; the network round trips therefore never block the manager loop.
// The resolves of a level travel in batched rounds
// (CommitClient.ResolveAll), so the submission delay is one round trip
// for the stages and one for the tasks whatever the plan's size; the
// state mutation passes stay on this goroutine.
func (jm *JobManager) probeCommits(j *jobRun) {
	cp := jm.commits
	if cp == nil {
		return
	}
	probes := j.met.Counter(metrics.NameCommitProbes)
	hits := j.met.Counter(metrics.NameCommitHits)
	misses := j.met.Counter(metrics.NameCommitMisses)

	var cacheable []*stageRun
	for _, s := range j.stages {
		if s.ps.CacheKey != "" {
			cacheable = append(cacheable, s)
		}
	}
	if len(cacheable) == 0 {
		return
	}
	keys := make([]string, len(cacheable))
	for i, s := range cacheable {
		keys[i] = stageCommitKey(s.ps.CacheKey)
	}
	found := cp.client.ResolveAll(keys, true)
	var missed []*stageRun
	for i, s := range cacheable {
		probes.Add(1)
		m := found[i]
		if m != nil && len(m.Parts) == s.ps.RootParallelism && singleChunkParts(m) {
			hits.Add(1)
			j.pinned = append(j.pinned, m.Key)
			jm.applyStageSkip(j, s, m)
			continue
		}
		if m != nil {
			// Unexpected shape: not usable, and the resolve pinned it.
			_ = cp.client.Unpin(m.Key)
		}
		misses.Add(1)
		missed = append(missed, s)
	}
	jm.probeTaskCommits(j, missed, probes, hits, misses)
}

// taskProbe is one per-task resolve of the submission probe: where the
// key lives in the stage's fragment/task grid.
type taskProbe struct {
	s      *stageRun
	fi, ti int
}

// probeTaskCommits resolves per-task commits for the stages whose
// stage-level keys missed, recording chunk addresses for applyTaskSkips.
func (jm *JobManager) probeTaskCommits(j *jobRun, stages []*stageRun, probes, hits, misses *metrics.Counter) {
	cp := jm.commits
	var work []taskProbe
	var keys []string
	for _, s := range stages {
		for fi, fragKeys := range s.ps.TaskKeys {
			for ti, key := range fragKeys {
				work = append(work, taskProbe{s: s, fi: fi, ti: ti})
				keys = append(keys, taskCommitKey(key))
			}
		}
	}
	for i, m := range cp.client.ResolveAll(keys, true) {
		w := work[i]
		probes.Add(1)
		ps := w.s.ps
		if m == nil {
			misses.Add(1)
			continue
		}
		if len(m.Parts) != ps.RootParallelism || !singleChunkParts(m) {
			_ = cp.client.Unpin(m.Key)
			misses.Add(1)
			continue
		}
		chunks := make([]string, len(m.Parts))
		for ri, p := range m.Parts {
			chunks[ri] = p[0]
		}
		if w.s.taskHits == nil {
			w.s.taskHits = make([][][]string, len(ps.Fragments))
		}
		if w.s.taskHits[w.fi] == nil {
			w.s.taskHits[w.fi] = make([][]string, len(ps.TaskKeys[w.fi]))
		}
		w.s.taskHits[w.fi][w.ti] = chunks
		j.pinned = append(j.pinned, m.Key)
		hits.Add(1)
	}
}

// applyStageSkip marks one stage satisfied by a stored commit: it is done
// before it ever schedules, its partitions resolve to CAS chunks, and its
// whole task complement is accounted as avoided compute.
func (jm *JobManager) applyStageSkip(j *jobRun, s *stageRun, m *storage.Manifest) {
	ps := s.ps
	s.gen = 1
	s.status = sDone
	s.skipChunks = make([]string, len(m.Parts))
	for i, p := range m.Parts {
		s.skipChunks[i] = p[0]
	}
	avoided := ps.RootParallelism
	for _, f := range ps.Fragments {
		avoided += f.Parallelism
	}
	j.met.Counter(metrics.NameComputeAvoidedTasks).Add(int64(avoided))
	j.tr.Emit(obs.Event{Kind: obs.StageSkipped, Stage: ps.ID,
		Note: fmt.Sprintf("%d parts from commit store", len(m.Parts))})
	j.tr.Emit(obs.Event{Kind: obs.StageComplete, Stage: ps.ID})
	jm.checkAllDone(j)
}

// applyTaskSkips commits every probed task hit of a stage that just
// entered sRunning: the task moves straight to tCommitted with no
// executor attached, and each receiver is relayed a commit message whose
// chunk address it pulls from the CAS in place of the push. Runs every
// generation (content addresses stay valid across restarts); tasks whose
// hit was revoked by a failed pull (onPullFailed clears the entry) run
// for real.
func (jm *JobManager) applyTaskSkips(j *jobRun, s *stageRun) {
	if jm.commits == nil || s.taskHits == nil {
		return
	}
	for fi, fr := range s.frags {
		if fi >= len(s.taskHits) || s.taskHits[fi] == nil {
			continue
		}
		for ti, chunks := range s.taskHits[fi] {
			if chunks == nil || ti >= len(fr.tasks) {
				continue
			}
			t := fr.tasks[ti]
			if t.state != tWaiting || t.attempt != 0 {
				continue
			}
			t.state = tCommitted
			fr.nCommitted++
			j.met.Counter(metrics.NameComputeAvoidedTasks).Add(1)
			j.tr.Emit(obs.Event{Kind: obs.TaskSkipped, Stage: s.ps.ID, Frag: fi, Task: ti})
			for idx, exID := range s.recvExecs {
				if ex := j.execs[exID]; ex != nil && idx < len(chunks) {
					ex.Commit(s.ps.ID, s.gen, idx, msgCommit{
						Frag: fi, Index: ti, Attempt: 0, Chunk: chunks[idx],
					})
				}
			}
		}
	}
}

// revokeTaskSkip forgets one task's probed hit after its CAS pull failed,
// so stage restarts relaunch it for real instead of re-skipping.
func revokeTaskSkip(s *stageRun, fi, ti int) {
	if s.taskHits == nil || fi >= len(s.taskHits) || s.taskHits[fi] == nil || ti >= len(s.taskHits[fi]) {
		return
	}
	s.taskHits[fi][ti] = nil
}

// commitStage assembles the per-partition chunk list gathered from
// evReservedTaskDone into a stage manifest and commits it off the event
// loop. Best-effort: a failure only forfeits reuse on the next run.
func (jm *JobManager) commitStage(j *jobRun, s *stageRun) {
	if jm.commits == nil || s.ps.CacheKey == "" || s.outChunks == nil {
		return
	}
	for _, c := range s.outChunks {
		if c == "" {
			return // some partition's chunk put failed; nothing to commit
		}
	}
	m := &storage.Manifest{Key: stageCommitKey(s.ps.CacheKey), Parts: make([][]string, len(s.outChunks))}
	for i, c := range s.outChunks {
		m.Parts[i] = []string{c}
	}
	client := jm.commits.client
	writes := j.met.Counter(metrics.NameCommitWrites)
	j.casWG.Add(1)
	go func() {
		defer j.casWG.Done()
		if err := client.Commit(m); err == nil {
			writes.Add(1)
		}
	}()
}

// unpinCommits releases every commit the submission probe pinned. Errors
// are ignored: pins only guard explicit deletion, and a dead manager
// cannot release them anyway.
func (jm *JobManager) unpinCommits(j *jobRun) {
	client := jm.casClient()
	if client == nil {
		return
	}
	for _, key := range j.pinned {
		_ = client.Unpin(key)
	}
}

// commitTaskChunks writes a finished content-addressable task's
// per-receiver section lists as CAS chunks and commits the task manifest.
// The sections are the task's alone (dispatchBoundaries keeps it out of the
// aggregation buffer, whose covers differ from run to run), combined or
// raw: the section codec marks which, so a reader needs no version and a
// store written with either keeps resolving. Best-effort.
func (ex *Executor) commitTaskChunks(taskKey string, sections [][]pushSection) {
	parts := make([][]string, len(sections))
	written := ex.met.Counter(metrics.NameCASBytesWritten)
	// One put per receiver section, issued concurrently: the puts are
	// independent and the manifest below is only committed if every one
	// landed, so a partial write can never be resolved by a later run.
	err := storage.Fanout(len(sections), len(sections), func(i int) error {
		payload, err := sectionsBlock(sections[i])
		if err != nil {
			return err
		}
		h, err := ex.cas.PutChunk(payload)
		if err != nil {
			return err
		}
		written.Add(int64(len(payload)))
		parts[i] = []string{h}
		return nil
	})
	if err != nil {
		return
	}
	if err := ex.cas.Commit(&storage.Manifest{Key: taskCommitKey(taskKey), Parts: parts}); err == nil {
		ex.met.Counter(metrics.NameCommitWrites).Add(1)
	}
}
