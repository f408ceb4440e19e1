package runtime

import (
	"fmt"
	"sync/atomic"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/storage"
)

// dispatchBoundaries encodes a finished fragment task's boundary outputs
// for the stage's reserved tasks: folded into per-receiver accumulator
// tables (§3.2.7) — perRecv, filled while the fragment ran — which join
// the executor's aggregation buffer or, for a content-addressable task, go
// out alone under the task's own cover; or raw frames with one section per
// boundary edge. Everything after the encoding — push, failure, commit —
// is pushFrames, for all three.
func (ex *Executor) dispatchBoundaries(ps *core.PhysStage, frag *core.Fragment, spec taskSpec,
	outs map[dag.VertexID][]data.Record, perRecv []*exec.AccTable) {

	g := ex.plan.Graph
	cover := []senderRef{{Index: spec.Index, Attempt: spec.Attempt}}
	nRecv := len(spec.Receivers)
	if nRecv == 0 {
		// A reserved-root stage always has receivers; reaching here is
		// a scheduling bug.
		ex.failCover(spec, cover, fmt.Errorf("runtime: no receivers for stage %d", spec.Stage), true)
		return
	}

	if perRecv != nil {
		comb := exec.Combiner(g, ps.Root)
		if ex.buffered(spec) {
			ex.aggBufferFor(spec, comb.AccCoder).deposit(cover[0], perRecv)
			return
		}
		sections, err := accSections(comb.AccCoder, perRecv)
		if err != nil {
			ex.failCover(spec, cover, err, true)
			return
		}
		ex.pushFrames(spec, cover, sections)
		return
	}

	// Each receiver gets exactly one section per boundary, so the slices
	// can be sized exactly once.
	sections := make([][]pushSection, nRecv)
	for i := range sections {
		sections[i] = make([]pushSection, 0, len(frag.Boundaries))
	}
	for _, b := range frag.Boundaries {
		coder, err := dataflow.OutputCoder(g.Vertex(b.From))
		if err != nil {
			ex.failCover(spec, cover, err, true)
			return
		}
		groups := make([][]data.Record, nRecv)
		if b.Dep == dag.OneToMany {
			for i := range groups {
				groups[i] = outs[b.From]
			}
		} else {
			// Size each receiver's group for an even split up front;
			// skewed partitions still grow past the hint.
			hint := (len(outs[b.From]) + nRecv - 1) / nRecv
			for _, r := range outs[b.From] {
				p := boundaryPartition(b.Dep, r, spec.Index, nRecv)
				if groups[p] == nil {
					groups[p] = make([]data.Record, 0, hint)
				}
				groups[p] = append(groups[p], r)
			}
		}
		for i := range groups {
			payload, err := data.EncodeAll(coder, groups[i])
			if err != nil {
				ex.failCover(spec, cover, err, true)
				return
			}
			sections[i] = append(sections[i], pushSection{Tag: b.Tag, Payload: payload})
		}
	}
	ex.pushFrames(spec, cover, sections)
}

// foldingCombine returns the combine a task folds its boundary output
// into, or nil when the output travels raw. The combiner applies when the
// stage root is a combine that takes folded input (exec.Combiner); its one
// input edge is then the fragment's one boundary. A content-addressable
// task always takes it, alone: its sections become a "task/" commit, which
// must be a pure function of the task's input, and a buffer merges
// whichever covers happened to meet (DESIGN.md §14). Every other task joins
// the buffer unless the configuration turned the buffer off.
func (ex *Executor) foldingCombine(ps *core.PhysStage, spec taskSpec) *dataflow.CombineOp {
	comb := exec.Combiner(ex.plan.Graph, ps.Root)
	if comb == nil || len(spec.Receivers) == 0 || !(ex.addressable(spec) || ex.buffered(spec)) {
		return nil
	}
	return comb
}

// addressable reports whether the task's output becomes a commit-store
// entry; buffered whether it joins the executor's aggregation buffer.
func (ex *Executor) addressable(spec taskSpec) bool { return spec.TaskKey != "" && ex.cas != nil }
func (ex *Executor) buffered(spec taskSpec) bool {
	return !ex.addressable(spec) && !ex.cfg.DisablePartialAggregation
}

// boundaryPartition routes one record to a receiver index for a boundary
// dependency type.
func boundaryPartition(dep dag.DepType, r data.Record, taskIdx, nRecv int) int {
	switch dep {
	case dag.ManyToMany:
		return data.Partition(r.Key, nRecv)
	case dag.ManyToOne:
		return 0
	case dag.OneToOne:
		if taskIdx < nRecv {
			return taskIdx
		}
		return taskIdx % nRecv
	default:
		return 0
	}
}

// failCover fails every task of a cover with err.
func (ex *Executor) failCover(spec taskSpec, cover []senderRef, err error, fatal bool) {
	for _, c := range cover {
		spec.Index, spec.Attempt = c.Index, c.Attempt
		ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: fatal})
	}
}

// pushFrames is the one outbound boundary path (§3.2.4-§3.2.5). spec
// supplies the stage coordinates, the receivers and the task key; the
// tasks whose output sections[i] carries for receiver i are named by cover
// — spec's own task, or every task an aggregation buffer merged. It sends
// every receiver its frame concurrently and, once every push is
// acknowledged, commits the cover through the master with one event. The
// commit-after-all-acks ordering is what makes the push path exactly-once:
// a frame the receiver staged is only merged after the commits arrive, so
// no receiver can observe a commit for data it doesn't hold. On any
// failure every covered task fails (first error by receiver index, for
// deterministic reporting) and no commit is sent; the relaunched attempts
// re-push everything and receivers drop superseded frames by attempt.
func (ex *Executor) pushFrames(spec taskSpec, cover []senderRef, sections [][]pushSection) {
	sizes := make([]int64, len(sections))
	var total int64
	note := ""
	for i, secs := range sections {
		for _, s := range secs {
			sizes[i] += int64(len(s.Payload))
			if s.Aggregated {
				note = "aggregated"
			}
		}
		total += sizes[i]
	}
	// Attribute the frames' bytes evenly across the covered tasks so
	// per-task trace spans still sum to the frame size.
	shares := attributeBytes(total, len(cover))
	pushed := ex.met.Counter(metrics.NameBytesPushed)
	for ci, c := range cover {
		ex.tr.Emit(obs.Event{Kind: obs.PushStarted, Stage: spec.Stage, Frag: spec.Frag,
			Task: c.Index, Attempt: c.Attempt, Exec: ex.id, Bytes: shares[ci], Note: note})
	}
	err := storage.Fanout(len(sections), len(sections), func(i int) error {
		f := &pushFrame{Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, RecvIdx: i, Frag: spec.Frag,
			Cover: cover, Sections: sections[i]}
		if err := sendPush(ex.dp, spec.Receivers[i], f); err != nil {
			return err
		}
		pushed.Add(sizes[i])
		return nil
	})
	if err != nil {
		if !ex.stopped() {
			ex.failCover(spec, cover, err, isFatal(err))
		}
		return
	}
	// Content-addressable task: write the acknowledged sections to the
	// commit store before reporting the commit, so a later run can skip
	// this task (commitplane.go). Best-effort and ordered before the
	// commit event: a "task/" manifest must never exist for data whose
	// push wasn't acknowledged.
	if spec.TaskKey != "" && ex.cas != nil {
		ex.commitTaskChunks(spec.TaskKey, sections)
	}
	ex.send(newOutputCommitted(ex.job, spec.Stage, spec.Gen, spec.Frag, cover))
}

// attributeBytes splits total evenly across n covered tasks. Integer
// division alone drops up to n-1 bytes per frame, so the first task
// carries the remainder; the shares always sum exactly to total, keeping
// eviction-cost attribution in the profiler consistent with the byte
// counters.
func attributeBytes(total int64, n int) []int64 {
	shares := make([]int64, n)
	share := total / int64(n)
	for i := range shares {
		shares[i] = share
	}
	shares[0] += total - share*int64(n)
	return shares
}

// fetchBlock is the one block read of the runtime: commit-store chunk
// `chunk` when the location names one (a skipped stage's partition), and
// block id in owner's local store otherwise.
func fetchBlock(dp *dataPlane, cas *storage.CommitClient, met *metrics.Job, owner, id, chunk string) ([]byte, error) {
	if chunk == "" {
		return storage.FetchBlock(dp, "fetch", owner, id)
	}
	payloads, errs := fetchChunks(cas, met, []string{chunk})
	return payloads[0], errs[0]
}

// fetchChunks reads chunks of the commit store in batched rounds — the
// sections of every skipped task a receiver was told of in one mailbox
// batch — counted into cas_bytes_served. A chunk that could not be had has
// its own error.
func fetchChunks(cas *storage.CommitClient, met *metrics.Job, chunks []string) ([][]byte, []error) {
	if cas == nil {
		errs := make([]error, len(chunks))
		for i, c := range chunks {
			errs[i] = fmt.Errorf("runtime: chunk %.12s… is in the commit store but this executor has no commit plane", c)
		}
		return make([][]byte, len(chunks)), errs
	}
	payloads, errs := cas.GetChunks(chunks)
	var served int64
	for _, p := range payloads {
		served += int64(len(p))
	}
	met.Counter(metrics.NameCASBytesServed).Add(served)
	return payloads, errs
}

// fetchStage is the one inbound boundary path: every task, receiver and
// the manager's output collection read a located stage output through it.
// The listed partitions are fetched concurrently (bounded by
// storage.MaxFetchWorkers), counted into bytes_fetched, decoded, and
// concatenated in the order of parts, so the record order the caller sees
// is independent of fetch timing. ev is the template of the
// fetch_started/fetch_done pair around the transfer: Stage names the
// parent stage, the rest is the caller's identity; a nil tr traces nothing.
func fetchStage(dp *dataPlane, cas *storage.CommitClient, met *metrics.Job, tr *obs.Buf, job int,
	ev obs.Event, loc stageLoc, parts []int, coder data.Coder) ([]data.Record, error) {

	for _, p := range parts {
		if p < 0 || p >= loc.nParts() {
			return nil, fmt.Errorf("runtime: partition %d out of range for stage %d", p, ev.Stage)
		}
	}
	ev.Kind = obs.FetchStarted
	tr.Emit(ev)
	decoded := make([][]data.Record, len(parts))
	fetched := met.Counter(metrics.NameBytesFetched)
	var total atomic.Int64
	err := storage.Fanout(len(parts), storage.MaxFetchWorkers, func(i int) error {
		var owner, id, chunk string
		if loc.Chunks != nil {
			chunk = loc.Chunks[parts[i]]
		} else {
			owner, id = loc.Execs[parts[i]], stageBlockID(job, ev.Stage, loc.Gen, parts[i])
		}
		payload, err := fetchBlock(dp, cas, met, owner, id, chunk)
		if err != nil {
			return err
		}
		fetched.Add(int64(len(payload)))
		total.Add(int64(len(payload)))
		decoded[i], err = data.DecodeAll(coder, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	var recs []data.Record
	switch {
	case len(decoded) == 1:
		recs = decoded[0] // a single partition is returned as decoded
	case len(decoded) > 1:
		n := 0
		for _, part := range decoded {
			n += len(part)
		}
		recs = make([]data.Record, 0, n)
		for _, part := range decoded {
			recs = append(recs, part...)
		}
	}
	ev.Kind, ev.Bytes = obs.FetchDone, total.Load()
	tr.Emit(ev)
	return recs, nil
}

// allParts lists every partition of a located stage output.
func allParts(loc stageLoc) []int {
	parts := make([]int, loc.nParts())
	for i := range parts {
		parts[i] = i
	}
	return parts
}
