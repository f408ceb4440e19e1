package runtime

import (
	"bytes"
	"fmt"
	"slices"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/storage"
)

// recvSpec describes one reserved task (receiver).
type recvSpec struct {
	Stage int
	Gen   int
	Index int
	// Expected is the total number of sender-task commits to wait for
	// (the sum of boundary fragments' parallelisms); 0 for stages
	// without transient fragments.
	Expected int
	// InputLocs locates parent stage outputs for cross-stage inputs.
	InputLocs map[int]stageLoc
	// Replicas are the other reserved containers that get a copy of the
	// finalized partition before the task reports done (homes.go).
	Replicas []string
	// Forward, when set, makes this receiver a combine shard of the
	// stage's root receiver, which runs on Forward: it merges the covers
	// pushed to it and forwards one section to the root instead of
	// finalizing (receiver.forward).
	Forward string
}

// Receiver messages.
type msgFrame struct{ f *pushFrame }

// msgCommit is a task-output commit forwarded by the master. Chunk, when
// non-empty, marks a skipped task (commitplane.go): no sender ran, and the
// sections are that chunk of the commit store.
type msgCommit struct {
	Frag    int
	Index   int
	Attempt int
	Chunk   string
}
type msgCancel struct{}

type fragSender struct{ Frag, Index int }

// receiver implements a reserved task (§3.2.4-3.2.5): it accepts pushed
// boundary data, stages it per sender, merges it once the sender's commit
// arrives through the master (exactly-once), fetches its cross-stage
// inputs, and finalizes the stage root when every expected input landed.
type receiver struct {
	ex   *Executor
	spec recvSpec
	msgs *mailbox
	quit chan struct{}

	root   *dag.Vertex
	comb   *dataflow.CombineOp
	table  *exec.AccTable
	tagged map[string][]data.Record
	sides  map[string][]data.Record

	staged    []*pushFrame
	committed map[fragSender]msgCommit
	processed map[fragSender]bool
	inputsOK  bool
	finalized bool
}

func newReceiver(ex *Executor, spec recvSpec) *receiver {
	r := &receiver{
		ex:        ex,
		spec:      spec,
		msgs:      newMailbox(),
		quit:      make(chan struct{}),
		tagged:    make(map[string][]data.Record),
		sides:     make(map[string][]data.Record),
		committed: make(map[fragSender]msgCommit),
		processed: make(map[fragSender]bool),
	}
	r.root = ex.plan.Graph.Vertex(ex.plan.Stages[spec.Stage].Root)
	if op, ok := r.root.Op.(*dataflow.CombineOp); ok {
		r.comb = op
		r.table = exec.NewAccTable(op.Fn, op.Global)
	}
	return r
}

// enqueue delivers a message; the mailbox is unbounded so neither the
// data-plane server nor the master's event loop ever blocks here.
func (r *receiver) enqueue(m any) bool {
	select {
	case <-r.quit:
		return false
	default:
	}
	r.msgs.put(m)
	return true
}

func (r *receiver) cancel() {
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
}

func (r *receiver) fail(err error, fatal bool) {
	r.ex.send(evReceiverFailed{Job: r.ex.job, Stage: r.spec.Stage, Gen: r.spec.Gen, Index: r.spec.Index,
		Exec: r.ex.id, Err: err, Fatal: fatal})
}

func (r *receiver) run() {
	// Cross-stage inputs can be fetched immediately: parent stage
	// outputs are already safe on reserved executors. Pushes arriving
	// meanwhile queue in the mailbox.
	if err := r.fetchInputs(); err != nil {
		if !r.ex.stopped() {
			r.fail(err, isFatal(err))
		}
		return
	}
	r.inputsOK = true
	if r.maybeFinalize() {
		return
	}
	for {
		m, ok := r.msgs.get(r.quit, r.ex.stop)
		if !ok {
			return
		}
		// Greedily drain whatever else is already queued so the sections a
		// batch of commits names can be pulled in one parallel fanout: the
		// master relays a skipped stage's commits back-to-back, and one
		// round trip per commit would serialize into the dominant rerun
		// cost. Frame staging and commit bookkeeping commute, so batch
		// order is indistinguishable from one-at-a-time order.
		batch := []any{m}
		for {
			v, ok := r.msgs.tryGet()
			if !ok {
				break
			}
			batch = append(batch, v)
		}
		var pulls []msgCommit
		for _, m := range batch {
			switch msg := m.(type) {
			case msgFrame:
				r.staged = append(r.staged, msg.f)
			case msgCommit:
				key := fragSender{Frag: msg.Frag, Index: msg.Index}
				if old, ok := r.committed[key]; !ok || msg.Attempt > old.Attempt {
					r.committed[key] = msg
				}
				if msg.Chunk != "" {
					pulls = append(pulls, msg)
				}
			case msgCancel:
				return
			}
		}
		if !r.pull(pulls) {
			return
		}
		if err := r.drainStaged(); err != nil {
			if !r.ex.stopped() {
				r.fail(err, true)
			}
			return
		}
		if r.maybeFinalize() {
			return
		}
	}
}

// pull is the receiver's one way to fetch what was not pushed to it: the
// chunks of skipped tasks, all of a batch's in batched rounds
// (fetchChunks). It reads each chunk's sections and stages them under the
// frame head the commit implies, exactly as if the sender had pushed (same
// Cover bookkeeping, so drainStaged and the exactly-once dedup cannot
// tell). A failed pull drops that commit and reports evPullFailed — the
// chunk is gone, so the skip must be reverted — and the master relaunches
// the task; the rest of the batch is unaffected. Returns false when the
// executor is stopping.
func (r *receiver) pull(commits []msgCommit) bool {
	chunks := make([]string, len(commits))
	evs := make([]obs.Event, len(commits))
	for i, c := range commits {
		chunks[i] = c.Chunk
		evs[i] = obs.Event{Kind: obs.FetchStarted, Stage: r.spec.Stage, Frag: c.Frag,
			Task: c.Index, Attempt: c.Attempt, Exec: r.ex.id, Note: "cas"}
		r.ex.tr.Emit(evs[i])
	}
	payloads, errs := fetchChunks(r.ex.cas, r.ex.met, chunks)
	for i, c := range commits {
		if errs[i] == nil {
			evs[i].Kind, evs[i].Bytes = obs.FetchDone, int64(len(payloads[i]))
			r.ex.tr.Emit(evs[i])
			if secs, err := readSections(data.NewDecoder(bytes.NewReader(payloads[i]))); err == nil {
				r.staged = append(r.staged, &pushFrame{Job: r.ex.job, Stage: r.spec.Stage, Gen: r.spec.Gen,
					RecvIdx: r.spec.Index, Frag: c.Frag, Cover: []senderRef{{Index: c.Index, Attempt: c.Attempt}}, Sections: secs})
				continue
			}
		}
		if r.ex.stopped() {
			return false
		}
		// Another receiver's failed pull may already have had the task
		// relaunched, and the batch may hold the new attempt's commit too:
		// only this commit is dropped.
		if key := (fragSender{Frag: c.Frag, Index: c.Index}); r.committed[key] == c {
			delete(r.committed, key)
		}
		r.ex.send(evPullFailed{ref: taskRef{
			Job: r.ex.job, Stage: r.spec.Stage, Gen: r.spec.Gen,
			Frag: c.Frag, Index: c.Index, Attempt: c.Attempt,
		}})
	}
	return true
}

// drainStaged processes every staged frame whose covered senders are all
// committed at the frame's attempts, and drops frames superseded by newer
// attempts.
func (r *receiver) drainStaged() error {
	keep := r.staged[:0]
	for _, f := range r.staged {
		ready, dead := true, false
		for _, c := range f.Cover {
			cm, ok := r.committed[fragSender{Frag: f.Frag, Index: c.Index}]
			switch {
			case ok && cm.Attempt == c.Attempt:
			case ok && cm.Attempt > c.Attempt:
				dead = true
			default:
				ready = false
			}
			if r.processed[fragSender{Frag: f.Frag, Index: c.Index}] {
				dead = true
			}
		}
		if dead {
			continue
		}
		if !ready {
			keep = append(keep, f)
			continue
		}
		if err := r.process(f); err != nil {
			return err
		}
		for _, c := range f.Cover {
			r.processed[fragSender{Frag: f.Frag, Index: c.Index}] = true
		}
	}
	r.staged = keep
	return nil
}

// process merges one frame's sections into the receiver's state.
func (r *receiver) process(f *pushFrame) error {
	g := r.ex.plan.Graph
	frag := r.ex.plan.Stages[r.spec.Stage].Fragments[f.Frag]
	for _, s := range f.Sections {
		if s.Aggregated {
			if r.comb == nil || r.comb.AccCoder == nil {
				return fmt.Errorf("runtime: aggregated push for non-combine root %q", r.root.Name)
			}
			accs, err := data.DecodeAll(r.comb.AccCoder, s.Payload)
			if err != nil {
				return err
			}
			if err := r.ex.throttle(len(accs) * dataflow.OpCost(r.root)); err != nil {
				return err
			}
			for _, a := range accs {
				r.table.MergeAcc(a.Key, a.Value)
			}
			continue
		}
		// Raw section: decode with the boundary source's output coder.
		from, err := boundarySource(frag, s.Tag)
		if err != nil {
			return err
		}
		coder, err := dataflow.OutputCoder(g.Vertex(from))
		if err != nil {
			return err
		}
		recs, err := data.DecodeAll(coder, s.Payload)
		if err != nil {
			return err
		}
		if err := r.ex.throttle(len(recs) * dataflow.OpCost(r.root)); err != nil {
			return err
		}
		r.addInput(s.Tag, recs)
	}
	return nil
}

func boundarySource(frag *core.Fragment, tag string) (dag.VertexID, error) {
	for _, b := range frag.Boundaries {
		if b.Tag == tag {
			return b.From, nil
		}
	}
	return 0, fmt.Errorf("runtime: no boundary with tag %q", tag)
}

// addInput routes decoded records into the root's input state. Pushed
// main-input records were already partitioned by the sender, so combine
// roots fold them directly.
func (r *receiver) addInput(tag string, recs []data.Record) {
	if r.comb != nil && tag == "" {
		for _, rec := range recs {
			r.table.AddRecord(rec)
		}
		return
	}
	if _, ok := r.root.Op.(*dataflow.ParDoOp); ok && tag != "" {
		r.sides[tag] = append(r.sides[tag], recs...)
		return
	}
	r.tagged[tag] = append(r.tagged[tag], recs...)
}

// fetchInputs pulls the stage's cross-stage inputs for this task.
func (r *receiver) fetchInputs() error {
	ps := r.ex.plan.Stages[r.spec.Stage]
	g := r.ex.plan.Graph
	for _, si := range ps.InputsTo(ps.Root) {
		loc, ok := r.spec.InputLocs[si.FromStage]
		if !ok {
			return fmt.Errorf("runtime: receiver missing location of stage %d", si.FromStage)
		}
		coder, err := dataflow.OutputCoder(g.Vertex(si.FromVertex))
		if err != nil {
			return err
		}
		parts := allParts(loc)
		if si.Dep == dag.OneToOne {
			parts = []int{r.spec.Index}
		}
		recs, err := r.ex.fetchParts(obs.Event{Stage: si.FromStage, Frag: obs.ReservedFrag,
			Task: r.spec.Index, Exec: r.ex.id, Note: "receiver"}, loc, parts, coder)
		if err != nil {
			return err
		}
		if si.Dep == dag.ManyToMany {
			// Keep only this task's hash partition.
			mine := recs[:0]
			for _, rec := range recs {
				if data.Partition(rec.Key, ps.RootParallelism) == r.spec.Index {
					mine = append(mine, rec)
				}
			}
			recs = mine
		}
		r.routeInput(si.Tag, recs, si.Dep == dag.OneToMany)
	}
	return nil
}

// routeInput places fetched cross-stage records: side inputs for ParDo
// roots, accumulator folds for combine roots, tagged inputs otherwise.
func (r *receiver) routeInput(tag string, recs []data.Record, side bool) {
	if side {
		if _, ok := r.root.Op.(*dataflow.ParDoOp); ok {
			r.sides[tag] = append(r.sides[tag], recs...)
			return
		}
	}
	if r.comb != nil && tag == "" {
		for _, rec := range recs {
			r.table.AddRecord(rec)
		}
		return
	}
	r.tagged[tag] = append(r.tagged[tag], recs...)
}

// maybeFinalize runs the root once all inputs arrived, stores the output
// partition, and reports completion.
func (r *receiver) maybeFinalize() bool {
	if r.spec.Forward != "" {
		return r.forward()
	}
	if r.finalized || !r.inputsOK || len(r.processed) < r.spec.Expected {
		return false
	}
	r.finalized = true
	out, err := r.runRoot()
	if err == nil {
		err = r.ex.throttle(len(out))
	}
	if err != nil {
		if !r.ex.stopped() {
			r.fail(err, true)
		}
		return true
	}
	coder, err := dataflow.OutputCoder(r.root)
	if err != nil {
		r.fail(err, true)
		return true
	}
	payload, err := data.EncodeAll(coder, out)
	if err != nil {
		r.fail(err, true)
		return true
	}
	blockID := stageBlockID(r.ex.job, r.spec.Stage, r.spec.Gen, r.spec.Index)
	r.ex.store.Put(blockID, payload)
	r.replicate(blockID, payload)
	// Cacheable stage: also write the partition to the commit store so
	// the master can commit the stage manifest once every receiver is
	// done. Best-effort — on error the done event just carries no chunk,
	// and the master skips the manifest.
	chunk := ""
	if r.ex.cas != nil && r.ex.plan.Stages[r.spec.Stage].CacheKey != "" {
		if h, err := r.ex.cas.PutChunk(payload); err == nil {
			chunk = h
			r.ex.met.Counter(metrics.NameCASBytesWritten).Add(int64(len(payload)))
		}
	}
	r.ex.send(evReservedTaskDone{Job: r.ex.job, Stage: r.spec.Stage, Gen: r.spec.Gen, Index: r.spec.Index,
		Exec: r.ex.id, Bytes: int64(len(payload)), Chunk: chunk})
	return true
}

func (r *receiver) runRoot() ([]data.Record, error) {
	switch r.root.Op.(type) {
	case *dataflow.CombineOp:
		return r.table.Extract(), nil
	case *dataflow.CreateOp, *dataflow.ParDoOp, *dataflow.MultiOp:
		in := exec.Inputs{
			Ext:   map[dag.VertexID]map[string][]data.Record{r.root.ID: r.tagged},
			Sides: map[dag.VertexID]map[string][]data.Record{r.root.ID: r.sides},
		}
		outs, err := exec.RunFragment(r.ex.plan.Graph, []dag.VertexID{r.root.ID}, in)
		if err != nil {
			return nil, err
		}
		return outs[r.root.ID], nil
	default:
		return nil, fmt.Errorf("runtime: unsupported reserved root payload %T", r.root.Op)
	}
}

// forward finishes a combine shard. It is done once every expected sender
// is committed: a sender's commit follows the acknowledgement of its push,
// so by then every frame pushed here is staged, and drainStaged has merged
// the ones whose attempts committed. It then pushes the merged table to
// the root receiver as one section under the cover of every sender it
// merged, at their committed attempts; the root merges it like any
// executor's cover, after the same commits, so each sender still counts
// once. A shard that merged nothing sends nothing. Reports true once the
// shard is done.
func (r *receiver) forward() bool {
	if r.finalized || !r.inputsOK || len(r.committed) < r.spec.Expected {
		return false
	}
	r.finalized = true
	if len(r.processed) == 0 {
		return true
	}
	cover := make([]senderRef, 0, len(r.processed))
	for k := range r.processed {
		cover = append(cover, senderRef{Index: k.Index, Attempt: r.committed[k].Attempt})
	}
	slices.SortFunc(cover, func(a, b senderRef) int { return a.Index - b.Index })
	sections, err := accSections(r.comb.AccCoder, []*exec.AccTable{r.table})
	if err == nil {
		// A sharded stage has one fragment.
		err = sendPush(r.ex.dp, r.spec.Forward, &pushFrame{Job: r.ex.job, Stage: r.spec.Stage, Gen: r.spec.Gen,
			Cover: cover, Sections: sections[0]})
	}
	if err != nil {
		if !r.ex.stopped() {
			r.fail(err, isFatal(err))
		}
		return true
	}
	r.ex.met.Counter(metrics.NameBytesPushed).Add(int64(len(sections[0][0].Payload)))
	return true
}

// replicate copies a finalized partition, its encoded bytes as they are,
// into the local stores of spec.Replicas, so transient executors homed
// there read it from there (homes.go). A copy that does not land is only
// a miss: its readers fall back to this owner.
func (r *receiver) replicate(id string, payload []byte) {
	if len(r.spec.Replicas) == 0 {
		return
	}
	storage.Fanout(len(r.spec.Replicas), len(r.spec.Replicas), func(i int) error {
		if storage.StoreBlock(r.ex.dp, "replicate", r.spec.Replicas[i], id, payload) == nil {
			r.ex.met.Counter(metrics.NameBytesPushed).Add(int64(len(payload)))
		}
		return nil
	})
}
