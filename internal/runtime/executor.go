package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/recache"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// nodeHost owns one container's network identity, shared across jobs:
// simnet allows a single listener per node, so the host runs the serve
// loop, owns the shared local block store, and routes inbound frames to
// the per-job executors attached to it. The host lives as long as the
// container; executors come and go with jobs.
type nodeHost struct {
	id    string
	kind  cluster.Kind
	node  *simnet.Node
	slots int
	store *storage.LocalStore
	cpu   *simnet.Limiter // nil = unlimited compute capacity

	stop     chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	jobs map[int]*Executor
}

func newNodeHost(c *cluster.Container) (*nodeHost, error) {
	h := &nodeHost{
		id:    c.ID,
		kind:  c.Kind,
		node:  c.Node,
		slots: c.Slots,
		store: storage.NewLocalStore(),
		cpu:   c.CPU,
		stop:  make(chan struct{}),
		jobs:  make(map[int]*Executor),
	}
	l, err := c.Node.Listen()
	if err != nil {
		return nil, err
	}
	// Inbound data plane: block get/put against the shared store, plus
	// boundary pushes routed to the target job's executor.
	go storage.ServeBlocks(l, h.store, nil, h.stop, h.handlePush)
	go func() {
		select {
		case <-c.Node.Down():
		case <-h.stop:
		}
		h.shutdown()
	}()
	return h, nil
}

// shutdown stops the host and every attached executor. Called on node
// down (eviction or failure) and on manager teardown.
func (h *nodeHost) shutdown() {
	h.stopOnce.Do(func() {
		close(h.stop)
		h.mu.Lock()
		exs := make([]*Executor, 0, len(h.jobs))
		for _, ex := range h.jobs {
			exs = append(exs, ex)
		}
		h.jobs = make(map[int]*Executor)
		h.mu.Unlock()
		for _, ex := range exs {
			ex.shutdown()
		}
	})
}

func (h *nodeHost) stopped() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

// attach registers a job's executor for inbound-frame routing. If the
// host already stopped (the container raced its own eviction), the
// executor is shut down immediately; the manager's eviction handling
// cleans up the rest.
func (h *nodeHost) attach(ex *Executor) {
	h.mu.Lock()
	h.jobs[ex.job] = ex
	h.mu.Unlock()
	if h.stopped() {
		ex.shutdown()
	}
}

// detach removes and shuts down one job's executor (job teardown). The
// shared store is left intact: committed stage outputs remain fetchable
// while the finished job's results are collected.
func (h *nodeHost) detach(job int) {
	h.mu.Lock()
	ex := h.jobs[job]
	delete(h.jobs, job)
	h.mu.Unlock()
	if ex != nil {
		ex.shutdown()
	}
}

func (h *nodeHost) executor(job int) *Executor {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jobs[job]
}

// openDests aggregates breaker-open destinations across every attached
// executor's RPC policy — the container-level gray signal carried in the
// host's heartbeats.
func (h *nodeHost) openDests() []string {
	h.mu.Lock()
	seen := make(map[string]bool)
	var out []string
	for _, ex := range h.jobs {
		for _, d := range ex.dp.openDests() {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	h.mu.Unlock()
	sort.Strings(out)
	return out
}

// startHeartbeats launches the host's heartbeat loop toward the master
// collector. The loop owns a dedicated connection (re-dialed on error)
// and never reads a response, so a wedged or partitioned master cannot
// make the sender lie about its own liveness cadence — at worst writes
// block, which is exactly the silence the detector is built to notice.
func (h *nodeHost) startHeartbeats(net *simnet.Network, masterID string, every time.Duration, met *metrics.Job) {
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		var conn *simnet.Conn
		var e *data.Encoder
		defer func() {
			if conn != nil {
				conn.Close()
				e.Release()
			}
		}()
		seq := 0
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			seq++
			if conn == nil {
				c, err := net.Dial(h.id, masterID)
				if err != nil {
					continue
				}
				conn = c
				e = data.StreamEncoder(conn)
			}
			if err := writeHeartbeat(e, &heartbeatFrame{ID: h.id, Seq: seq, Open: h.openDests()}); err != nil {
				conn.Close()
				e.Release()
				conn, e = nil, nil
				continue
			}
			met.Counter(metrics.NameHeartbeatsSent).Add(1)
		}
	}()
}

// handlePush serves the one inbound frame the block protocol does not
// cover: a boundary push, routed to the target job's executor.
func (h *nodeHost) handlePush(op byte, e *data.Encoder, d *data.Decoder) error {
	if op != framePush {
		return fmt.Errorf("runtime: unknown frame %q", op)
	}
	f, err := readPushFrame(d)
	if err != nil {
		return err
	}
	ex := h.executor(f.Job)
	return storage.Answer(e, ex != nil && ex.deliverPush(f), nil)
}

// Executor runs one job's tasks on one container (§3.2.4). Transient
// executors run fragment tasks and push their outputs toward reserved
// executors; reserved executors additionally host receivers (reserved
// tasks) and keep stage outputs in the host's local store. The network
// identity (listener, store, CPU limiter) belongs to the nodeHost and is
// shared by every job's executor on the container; per-job state (cache,
// receivers, aggregation buffers, connection pool) lives here.
type Executor struct {
	job  int
	id   string
	kind cluster.Kind
	net  *simnet.Network
	plan *core.Plan
	cfg  Config
	met  *metrics.Job
	tr   *obs.Buf // per-executor, job-tagged buffer folding into met

	events   chan<- event
	masterID string

	store *storage.LocalStore // the host's shared store
	cache *recache.Cache
	cpu   *simnet.Limiter // the host's limiter; nil = unlimited
	dp    *dataPlane      // outbound data plane: pooled streams under the RPC policy
	// cas is the executor's commit-store client (nil when the manager has
	// no commit plane), sharing the transport above: receivers put
	// finalized partitions and pull skipped-task sections through it,
	// senders put content-addressable tasks' sections (commitplane.go).
	cas *storage.CommitClient

	stop     chan struct{}
	stopOnce sync.Once

	mu        sync.Mutex
	receivers map[recvKey]*receiver
	aggbufs   map[aggKey]*aggBuffer
}

type recvKey struct{ Stage, Gen, Index int }
type aggKey struct{ Stage, Gen, Frag int }

func newExecutor(job int, h *nodeHost, net *simnet.Network, plan *core.Plan, cfg Config,
	met *metrics.Job, events chan<- event, masterID string, casNodes []string) *Executor {

	dp := newDataPlane(net, h.id, met, cfg.Tracer.Buf(met, job))
	var cas *storage.CommitClient
	if len(casNodes) > 0 {
		cas = storage.NewCommitClient(dp, casNodes)
	}
	return &Executor{
		job:       job,
		id:        h.id,
		kind:      h.kind,
		net:       net,
		plan:      plan,
		cfg:       cfg,
		met:       met,
		tr:        cfg.Tracer.Buf(met, job),
		events:    events,
		masterID:  masterID,
		store:     h.store,
		cache:     recache.New(cacheCapacity),
		dp:        dp,
		cas:       cas,
		cpu:       h.cpu,
		stop:      make(chan struct{}),
		receivers: make(map[recvKey]*receiver),
		aggbufs:   make(map[aggKey]*aggBuffer),
	}
}

// shutdown stops the executor's goroutines. Called by the host on node
// down (eviction or failure) and by the manager on job teardown.
func (ex *Executor) shutdown() {
	ex.stopOnce.Do(func() {
		close(ex.stop)
		ex.mu.Lock()
		recvs := make([]*receiver, 0, len(ex.receivers))
		for _, r := range ex.receivers {
			recvs = append(recvs, r)
		}
		ex.receivers = make(map[recvKey]*receiver)
		ex.mu.Unlock()
		for _, r := range recvs {
			r.cancel()
		}
		ex.dp.pool.Close()
	})
}

func (ex *Executor) stopped() bool {
	select {
	case <-ex.stop:
		return true
	default:
		return false
	}
}

// send delivers an event to the manager unless the executor stopped.
func (ex *Executor) send(ev event) {
	select {
	case ex.events <- ev:
	case <-ex.stop:
	}
}

func (ex *Executor) deliverPush(f *pushFrame) bool {
	ex.mu.Lock()
	r := ex.receivers[recvKey{Stage: f.Stage, Gen: f.Gen, Index: f.RecvIdx}]
	ex.mu.Unlock()
	if r == nil {
		return false
	}
	return r.enqueue(msgFrame{f: f})
}

// StartReceiver registers and runs a reserved task (receiver) on this
// executor. Called by the master's scheduler; reserved tasks are set up
// before the stage's transient tasks launch (§3.2.3).
func (ex *Executor) StartReceiver(spec recvSpec) {
	r := newReceiver(ex, spec)
	ex.mu.Lock()
	ex.receivers[recvKey{Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index}] = r
	ex.mu.Unlock()
	go r.run()
	if spec.Forward == "" {
		// A combine shard is no reserved task of its own: the master
		// waits for the root receiver alone.
		ex.send(evReceiverReady{Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index})
	}
}

// CancelReceiver tears down a receiver during stage restarts (§3.2.6).
func (ex *Executor) CancelReceiver(stage, gen, idx int) {
	ex.mu.Lock()
	k := recvKey{Stage: stage, Gen: gen, Index: idx}
	r := ex.receivers[k]
	delete(ex.receivers, k)
	ex.mu.Unlock()
	if r != nil {
		r.cancel()
	}
}

// Commit forwards a task-output commit from the master to a receiver
// (§3.2.5: commit messages travel through the master).
func (ex *Executor) Commit(stage, gen, recvIdx int, c msgCommit) {
	ex.mu.Lock()
	r := ex.receivers[recvKey{Stage: stage, Gen: gen, Index: recvIdx}]
	ex.mu.Unlock()
	if r != nil {
		r.enqueue(c)
	}
}

// Launch starts a fragment task. The master performed slot accounting;
// the executor just runs it on its own goroutine (§3.2.4: executors run
// tasks on separate threads; outputs are sent on yet another thread).
func (ex *Executor) Launch(spec taskSpec) {
	go ex.runTask(spec)
}

// stageLoc locates one stage's output partitions: normally an executor id
// per partition, but a stage served from the commit store (skipped on
// this run) carries a CAS chunk hash per partition instead and no execs.
type stageLoc struct {
	Gen    int
	Execs  []string // executor id per partition
	Chunks []string // commit-store chunk per partition (skipped stages)
	// Replicas are the reserved containers that hold a copy of every
	// partition (owners included), for an output transient executors
	// read whole from their home (homes.go); nil when it is not copied.
	Replicas []string
}

// nParts is the partition count regardless of which location form is set.
func (loc stageLoc) nParts() int {
	if loc.Chunks != nil {
		return len(loc.Chunks)
	}
	return len(loc.Execs)
}

// taskSpec describes one fragment task attempt.
type taskSpec struct {
	Stage   int
	Gen     int
	Frag    int
	Index   int
	Attempt int
	// InputLocs locates the outputs of every parent stage this task
	// reads from.
	InputLocs map[int]stageLoc
	// Receivers maps reserved task index to executor id (nil for
	// terminal transient stages). When the stage's fan-in is sharded it
	// is the task's home alone, which runs the root receiver or a shard
	// of it (homes.go).
	Receivers []string
	// Terminal marks tasks of terminal transient stages, whose root
	// output is pushed to the master collector.
	Terminal bool
	// TaskKey, when non-empty, is the task's deterministic commit-store
	// key: the task pushes under its own cover — combined accumulator
	// sections where the stage root allows, raw ones otherwise — and after
	// the acknowledged push writes those sections as a "task/<key>" commit
	// so a later run can skip this task (commitplane.go). Empty when the
	// commit plane is off or the task is not content-addressable.
	TaskKey string
	// Home is the executor's home reserved container for this
	// generation, where it reads replicated inputs (empty when the stage
	// has no homes).
	Home string
}

func (ex *Executor) runTask(spec taskSpec) {
	ps := ex.plan.Stages[spec.Stage]
	frag := ps.Fragments[spec.Frag]

	want, fold := ex.fragmentOutputs(ps, frag, spec)
	outs, cached, err := ex.computeFragment(ps, frag, spec, want)
	if err != nil {
		if !ex.stopped() {
			ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: isFatal(err)})
		}
		return
	}

	// Free the slot immediately: the master can schedule the next task
	// while the output escapes on this goroutine (§3.2.4).
	ex.send(newTaskComputed(ex.ref(spec), ex.id, cached))

	if spec.Terminal {
		ex.sendTerminal(ps, frag, spec, outs)
		return
	}
	ex.dispatchBoundaries(ps, frag, spec, outs, fold)
}

// fragmentOutputs says what a task takes from its fragment run: the root
// for a terminal task; otherwise the boundary outputs, or — when
// foldingCombine applies — a sink that folds the one boundary output
// straight into per-receiver accumulator tables, returned with it.
func (ex *Executor) fragmentOutputs(ps *core.PhysStage, frag *core.Fragment, spec taskSpec) (exec.Outputs, []*exec.AccTable) {
	if spec.Terminal {
		return exec.Outputs{Keep: []dag.VertexID{ps.Root}}, nil
	}
	if comb := ex.foldingCombine(ps, spec); comb != nil {
		tables, fold := exec.FoldSink(comb, len(spec.Receivers))
		return exec.Outputs{Sinks: map[dag.VertexID]func(data.Record){frag.Boundaries[0].From: fold}}, tables
	}
	want := exec.Outputs{Keep: make([]dag.VertexID, len(frag.Boundaries))}
	for i, b := range frag.Boundaries {
		want.Keep[i] = b.From
	}
	return want, nil
}

// ref builds the job-scoped event reference for one of this executor's
// task attempts. taskSpec itself carries no job id: the executor is the
// job-scoped object, so it stamps its own.
func (ex *Executor) ref(spec taskSpec) taskRef {
	return taskRef{Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, Frag: spec.Frag, Index: spec.Index, Attempt: spec.Attempt}
}

// inputFetch is one pending cross-stage input transfer of a fragment
// task. Fetches are collected first and issued concurrently — they hit
// distinct parent partitions on possibly distinct owners — then applied
// in plan order so record ordering stays deterministic.
type inputFetch struct {
	op dag.VertexID
	si core.StageInput
	// part is the aligned partition a one-to-one edge reads, or
	// recache.Broadcast for a one-to-many side input.
	part int

	recs   []data.Record
	cached bool
}

// computeFragment resolves the task's external inputs and interprets the
// fused operator chain.
func (ex *Executor) computeFragment(ps *core.PhysStage, frag *core.Fragment, spec taskSpec, want exec.Outputs) (map[dag.VertexID][]data.Record, []recache.Key, error) {
	g := ex.plan.Graph
	in := exec.Inputs{
		Ext:   make(map[dag.VertexID]map[string][]data.Record),
		Sides: make(map[dag.VertexID]map[string][]data.Record),
		Read:  make(map[dag.VertexID]func() (dataflow.Iterator, error)),
	}
	var cached []recache.Key
	var fetches []*inputFetch

	for _, opID := range frag.Ops {
		v := g.Vertex(opID)
		if rd, ok := v.Op.(*dataflow.ReadOp); ok {
			cache := ex.cacheFor(rd.Cached)
			in.Read[opID] = func() (dataflow.Iterator, error) {
				it, _, err := cache.Read(v, spec.Index, ex.tr, obs.Event{Stage: spec.Stage, Frag: spec.Frag,
					Task: spec.Index, Exec: ex.id, Note: "read"}, ex.throttle)
				if err == nil && cache != nil {
					cached = append(cached, recache.Key{Vertex: opID, Partition: spec.Index})
				}
				return it, err
			}
		}

		for _, si := range ps.InputsTo(opID) {
			if _, ok := spec.InputLocs[si.FromStage]; !ok {
				return nil, cached, fmt.Errorf("runtime: missing input location for stage %d", si.FromStage)
			}
			f := &inputFetch{op: opID, si: si, part: spec.Index}
			if si.Dep == dag.OneToMany {
				f.part = recache.Broadcast
			} else if si.Dep != dag.OneToOne {
				return nil, cached, fmt.Errorf("runtime: transient operator %q has %v cross-stage input", v.Name, si.Dep)
			}
			fetches = append(fetches, f)
		}
	}

	// Issue the independent cross-stage fetches concurrently; each targets
	// a different parent edge, so serializing them just sums their network
	// round trips onto the task's critical path.
	err := storage.Fanout(len(fetches), storage.MaxFetchWorkers, func(i int) error {
		f := fetches[i]
		coder, err := dataflow.OutputCoder(g.Vertex(f.si.FromVertex))
		if err != nil {
			return err
		}
		f.recs, f.cached, err = ex.fetchInput(f.si, spec.InputLocs[f.si.FromStage], f.part, spec.Home, coder)
		return err
	})
	if err != nil {
		return nil, cached, err
	}
	// Apply in collection (plan) order: record ordering and the reported
	// cache keys stay identical to the serial implementation.
	for _, f := range fetches {
		if f.cached {
			cached = append(cached, recache.Key{Vertex: f.si.FromVertex, Partition: f.part})
		}
		dst := in.Ext
		if f.part == recache.Broadcast {
			dst = in.Sides
		}
		addTagged(dst, f.op, f.si.Tag, f.recs)
	}
	in.Throttle = ex.throttle
	outs, err := exec.Run(g, frag.Ops, in, want)
	return outs, cached, err
}

// throttle charges the executor's compute-capacity limiter for processed
// records (no-op when unlimited).
func (ex *Executor) throttle(records int) error {
	if ex.cpu == nil {
		return nil
	}
	return ex.cpu.Acquire(records, ex.stop)
}

func addTagged(m map[dag.VertexID]map[string][]data.Record, op dag.VertexID, tag string, recs []data.Record) {
	if m[op] == nil {
		m[op] = make(map[string][]data.Record)
	}
	// A single input is aliased; a second one copies rather than append
	// into the first's spare capacity, which a cache entry may own.
	if prev, ok := m[op][tag]; ok {
		recs = append(prev[:len(prev):len(prev)], recs...)
	}
	m[op][tag] = recs
}

// cacheFor returns the executor's input cache for an input the plan marked
// cacheable, and nil — recache.Load then reads through — for any other.
func (ex *Executor) cacheFor(cacheable bool) *recache.Cache {
	if cacheable && !ex.cfg.DisableCache {
		return ex.cache
	}
	return nil
}

// fetchInput pulls one cross-stage input of a fragment task — the aligned
// partition part of a one-to-one edge, or with part == recache.Broadcast
// every partition of a one-to-many side input — through the input cache
// when the plan marked the edge cacheable. Cached inputs share one network
// fetch among concurrent task slots (§3.2.7: the data "only needs to be
// sent once to the executors"). The second result reports whether the
// records are now resident in this executor's cache — hit, fresh fill and
// shared fill alike — so the master's cache index can steer future tasks
// to this executor. An input its home holds a copy of is read from home,
// and from the owners when that read fails.
func (ex *Executor) fetchInput(si core.StageInput, loc stageLoc, part int, home string, coder data.Coder) ([]data.Record, bool, error) {
	fetchEv := obs.Event{Stage: si.FromStage, Frag: part, Task: part, Exec: ex.id}
	cacheEv, parts := fetchEv, []int{part}
	cacheEv.Note = "partition"
	if part == recache.Broadcast {
		fetchEv.Note, cacheEv.Note = "broadcast", "broadcast"
		parts = allParts(loc)
	}
	fetch := func() ([]data.Record, error) {
		if home != "" && slices.Contains(loc.Replicas, home) {
			relay := loc
			relay.Execs = make([]string, len(loc.Execs))
			for i := range relay.Execs {
				relay.Execs[i] = home
			}
			if recs, err := ex.fetchParts(fetchEv, relay, parts, coder); err == nil || ex.stopped() {
				return recs, err
			}
		}
		return ex.fetchParts(fetchEv, loc, parts, coder)
	}
	cache := ex.cacheFor(si.Cached)
	recs, err := cache.Load(recache.Key{Vertex: si.FromVertex, Partition: part}, ex.tr, cacheEv, fetch)
	return recs, cache != nil && err == nil, err
}

// fetchParts is fetchStage on this executor's data plane.
func (ex *Executor) fetchParts(ev obs.Event, loc stageLoc, parts []int, coder data.Coder) ([]data.Record, error) {
	return fetchStage(ex.dp, ex.cas, ex.met, ex.tr, ex.job, ev, loc, parts, coder)
}

// sendTerminal pushes a terminal transient task's output to the master
// collector; the acknowledged push doubles as the commit.
func (ex *Executor) sendTerminal(ps *core.PhysStage, frag *core.Fragment, spec taskSpec, outs map[dag.VertexID][]data.Record) {
	coder, err := dataflow.OutputCoder(ex.plan.Graph.Vertex(ps.Root))
	if err != nil {
		ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: true})
		return
	}
	payload, err := data.EncodeAll(coder, outs[ps.Root])
	if err != nil {
		ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err, Fatal: true})
		return
	}
	ex.tr.Emit(obs.Event{Kind: obs.PushStarted, Stage: spec.Stage, Frag: spec.Frag,
		Task: spec.Index, Attempt: spec.Attempt, Exec: ex.id, Bytes: int64(len(payload)),
		Note: "result"})
	f := &resultFrame{Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index, Attempt: spec.Attempt, Payload: payload}
	if err := sendResult(ex.dp, ex.masterID, f); err != nil {
		if !ex.stopped() {
			ex.send(evTaskFailed{ref: ex.ref(spec), Exec: ex.id, Err: err})
		}
		return
	}
	ex.met.Counter(metrics.NameBytesPushed).Add(int64(len(payload)))
}

// isFatal: fetch and network errors are retryable (caused by evictions,
// failures, or races with recovery); anything else — user function
// errors, coder mismatches — is a job bug and aborts the run.
func isFatal(err error) bool { return !storage.IsTransient(err) }

// aggBuffer merges the aggregated boundary outputs of tasks running on the
// same executor and widens the cover before they are pushed (§3.2.7
// partial aggregation). Data escapes when AggMaxTasks outputs accumulated
// — at 1, every task flushes alone — or AggMaxDelay elapsed. The buffer
// only merges and encodes; sending, failing and committing the flushed
// frames is pushFrames.
type aggBuffer struct {
	ex *Executor
	// spec is the first depositor's: stage coordinates and receivers are
	// the same for every task of the fragment generation.
	spec     taskSpec
	accCoder data.Coder

	mu     sync.Mutex
	tables []*exec.AccTable // per receiver; nil while the buffer is empty
	cover  []senderRef
	timer  *time.Timer
}

func (ex *Executor) aggBufferFor(spec taskSpec, accCoder data.Coder) *aggBuffer {
	k := aggKey{Stage: spec.Stage, Gen: spec.Gen, Frag: spec.Frag}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	b, ok := ex.aggbufs[k]
	if !ok {
		b = &aggBuffer{ex: ex, spec: spec, accCoder: accCoder}
		ex.aggbufs[k] = b
	}
	return b
}

// deposit merges one task's per-receiver accumulator tables into the
// buffer — an empty buffer adopts them — and flushes if the task-count
// limit is reached.
func (b *aggBuffer) deposit(ref senderRef, perRecv []*exec.AccTable) {
	b.mu.Lock()
	if len(b.cover) == 0 {
		b.tables = perRecv
	} else {
		for i, t := range perRecv {
			for _, r := range t.AccRecords() {
				b.tables[i].MergeAcc(r.Key, r.Value)
			}
		}
	}
	b.cover = append(b.cover, ref)
	if len(b.cover) >= b.ex.cfg.aggMaxTasks() {
		b.flushLocked()
		return
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.ex.cfg.aggMaxDelay(), func() {
			b.mu.Lock()
			b.flushLocked()
		})
	}
	b.mu.Unlock()
}

// flushLocked takes whatever the buffer holds, encodes one aggregated
// section per receiver and hands them to pushFrames under the merged
// cover. Called with b.mu held — so a cover never outgrows AggMaxTasks —
// and releases it before encoding.
func (b *aggBuffer) flushLocked() {
	tables, cover := b.tables, b.cover
	b.tables, b.cover = nil, nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.mu.Unlock()
	if len(cover) == 0 {
		return // the timer raced a count-triggered flush
	}
	sections, err := accSections(b.accCoder, tables)
	if err != nil {
		b.ex.failCover(b.spec, cover, err, true)
		return
	}
	b.ex.pushFrames(b.spec, cover, sections)
}

// accSections wraps per-receiver accumulator tables, encoded by
// exec.EncodeAccs, as one aggregated section each.
func accSections(accCoder data.Coder, tables []*exec.AccTable) ([][]pushSection, error) {
	payloads, err := exec.EncodeAccs(accCoder, tables)
	if err != nil {
		return nil, err
	}
	sections := make([][]pushSection, len(payloads))
	for i, payload := range payloads {
		sections[i] = []pushSection{{Aggregated: true, Payload: payload}}
	}
	return sections, nil
}
