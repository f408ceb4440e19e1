package runtime

import (
	"fmt"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/obs"
	"pado/internal/storage"
)

// dispatchBoundaries moves a finished fragment task's boundary outputs to
// the stage's reserved tasks. Depending on configuration the data takes
// the paper's push path (possibly partially aggregated) or, in the
// pull-boundary ablation, is parked in the local store for receivers to
// pull after commit.
func (ex *Executor) dispatchBoundaries(ps *core.PhysStage, frag *core.Fragment, spec taskSpec,
	outs map[dag.VertexID][]data.Record) {

	g := ex.plan.Graph
	nRecv := len(spec.Receivers)
	if nRecv == 0 {
		// A reserved-root stage always has receivers; reaching here is
		// a scheduling bug.
		ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: fmt.Errorf("runtime: no receivers for stage %d", spec.Stage), Fatal: true})
		return
	}

	// Partial aggregation applies when the stage root is a combine with
	// an accumulator coder and the fragment has exactly one boundary
	// carrying the combine's main input.
	rootOp, _ := g.Vertex(ps.Root).Op.(*dataflow.CombineOp)
	aggregable := !ex.cfg.DisablePartialAggregation &&
		rootOp != nil && rootOp.AccCoder != nil &&
		len(frag.Boundaries) == 1 && frag.Boundaries[0].Tag == "" &&
		!ex.cfg.PullBoundaries

	if aggregable {
		// Fold this task's records into per-receiver accumulator tables.
		b := frag.Boundaries[0]
		perRecv := make([]*exec.AccTable, nRecv)
		for i := range perRecv {
			perRecv[i] = exec.NewAccTable(rootOp.Fn, rootOp.Global)
		}
		for _, r := range outs[b.From] {
			perRecv[boundaryPartition(b.Dep, r, spec.Index, nRecv)].AddRecord(r)
		}
		if ex.cfg.aggMaxTasks() > 1 {
			// Executor-level aggregation across tasks (§3.2.7).
			buf := ex.aggBufferFor(ps, spec, rootOp.AccCoder, rootOp.Fn, rootOp.Global)
			buf.deposit(senderRef{Index: spec.Index, Attempt: spec.Attempt}, perRecv)
			return
		}
		// Task-level aggregation only: one frame per receiver.
		frames := make([]*pushFrame, nRecv)
		for i := range frames {
			payload, err := encodeAccTable(rootOp.AccCoder, perRecv[i])
			if err != nil {
				ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: true})
				return
			}
			frames[i] = &pushFrame{
				Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, RecvIdx: i, Frag: spec.Frag,
				Cover:    []senderRef{{Index: spec.Index, Attempt: spec.Attempt}},
				Sections: []pushSection{{Tag: "", Aggregated: true, Payload: payload}},
			}
		}
		ex.pushFrames(spec, frames)
		return
	}

	// Raw path: per-receiver frames with one section per boundary edge.
	// Each receiver gets exactly one section per boundary, so the slices
	// can be sized exactly once.
	sections := make([][]pushSection, nRecv)
	for i := range sections {
		sections[i] = make([]pushSection, 0, len(frag.Boundaries))
	}
	for _, b := range frag.Boundaries {
		coder, err := dataflow.OutputCoder(g.Vertex(b.From))
		if err != nil {
			ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: true})
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
				ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: true})
				return
			}
			sections[i] = append(sections[i], pushSection{Tag: b.Tag, Payload: payload})
		}
	}
	frames := make([]*pushFrame, nRecv)
	for i := range frames {
		frames[i] = &pushFrame{
			Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, RecvIdx: i, Frag: spec.Frag,
			Cover:    []senderRef{{Index: spec.Index, Attempt: spec.Attempt}},
			Sections: sections[i],
		}
	}

	if ex.cfg.PullBoundaries {
		// Ablation: park encoded frames locally; receivers pull them
		// after the commit, exactly like shuffle files on local disk —
		// and exactly as vulnerable to eviction.
		var total int64
		for i, f := range frames {
			var buf []byte
			buf, err := encodeFrameBlock(f)
			if err != nil {
				ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: true})
				return
			}
			ex.store.Put(taskBlockID(ex.job, spec.Stage, spec.Gen, spec.Frag, spec.Index, spec.Attempt, i), buf)
			total += int64(len(buf))
		}
		_ = total
		ex.send(newOutputCommitted(ex.ref(spec)))
		return
	}
	ex.pushFrames(spec, frames)
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

// pushFrames sends every receiver its frame concurrently and then, once
// every push is acknowledged, commits the task through the master. The
// commit-after-all-acks ordering is what makes the push path exactly-once
// (§3.2.5): a frame the receiver staged is only merged after the commit
// arrives, so no receiver can observe a commit for data it doesn't hold.
// On any failure the task fails (first error by receiver index, for
// deterministic reporting) and no commit is sent; the relaunched attempt
// re-pushes everything and receivers drop superseded frames by attempt.
func (ex *Executor) pushFrames(spec taskSpec, frames []*pushFrame) {
	var total int64
	for _, f := range frames {
		for _, s := range f.Sections {
			total += int64(len(s.Payload))
		}
	}
	ex.tr.Emit(obs.Event{Kind: obs.PushStarted, Stage: spec.Stage, Frag: spec.Frag,
		Task: spec.Index, Attempt: spec.Attempt, Exec: ex.id, Bytes: total})
	err := storage.Fanout(len(frames), len(frames), func(i int) error {
		var n int64
		for _, s := range frames[i].Sections {
			n += int64(len(s.Payload))
		}
		if err := sendPush(ex.dp, spec.Receivers[i], frames[i]); err != nil {
			return err
		}
		ex.met.BytesPushed.Add(n)
		return nil
	})
	if err != nil {
		if !ex.stopped() {
			ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: isFatal(err)})
		}
		return
	}
	// Content-addressable task: write the acknowledged sections to the
	// commit store before reporting the commit, so a later run can skip
	// this task (commitplane.go). Best-effort and ordered before the
	// commit event: a "task/" manifest must never exist for data whose
	// push wasn't acknowledged.
	if spec.TaskKey != "" && ex.cas != nil {
		ex.commitTaskChunks(spec, frames)
	}
	ex.send(newOutputCommitted(ex.ref(spec)))
}

// encodeFrameBlock / decodeFrameBlock serialize a pushFrame for the
// pull-boundary ablation's local store.
func encodeFrameBlock(f *pushFrame) ([]byte, error) {
	return data.Encoded(func(e *data.Encoder) error {
		return writePushFrame(e, f)
	})
}

func decodeFrameBlock(b []byte) (*pushFrame, error) {
	d := data.NewDecoder(readerOf(b))
	op, err := d.Byte()
	if err != nil {
		return nil, err
	}
	if op != framePush {
		return nil, fmt.Errorf("runtime: bad frame block")
	}
	return readPushFrame(d)
}
