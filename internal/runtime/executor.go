package runtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
		for _, d := range ex.dp.pol.openDests() {
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
				e = data.NewEncoder(conn)
			}
			if err := writeHeartbeat(e, &heartbeatFrame{ID: h.id, Seq: seq, Open: h.openDests()}); err != nil {
				conn.Close()
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
	resp := byte(respNo)
	if ex := h.executor(f.Job); ex != nil && ex.deliverPush(f) {
		resp = respOK
	}
	if err := e.Byte(resp); err != nil {
		return err
	}
	return e.Flush()
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
	tr   *obs.Buf // per-executor, job-tagged trace buffer (nil = off)

	events   chan<- event
	masterID string

	store  *storage.LocalStore // the host's shared store
	cache  *recache.Cache
	flight *recache.Flight
	cpu    *simnet.Limiter // the host's limiter; nil = unlimited
	dp     *dataPlane      // outbound data plane: pooled streams + RPC policy
	// cas is the executor's commit-store client (nil when the manager has
	// no commit plane), sharing the transport above: receivers put
	// finalized partitions and pull skipped-task sections through it,
	// senders put raw-path task chunks (commitplane.go).
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
	met *metrics.Job, events chan<- event, masterID string, fcfg FailureConfig,
	casNodes []string) *Executor {

	dp := newDataPlane(net, h.id, met, fcfg, cfg.Tracer.JobBuf(job))
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
		tr:        cfg.Tracer.JobBuf(job),
		events:    events,
		masterID:  masterID,
		store:     h.store,
		cache:     recache.New(cacheCapacity),
		flight:    recache.NewFlight(),
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
	ex.send(evReceiverReady{Job: ex.job, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index})
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
	// terminal transient stages).
	Receivers []string
	// Terminal marks tasks of terminal transient stages, whose root
	// output is pushed to the master collector.
	Terminal bool
	// TaskKey, when non-empty, is the task's deterministic commit-store
	// key: after a successful raw-path push the executor writes the
	// pushed sections as a "task/<key>" commit so a later run can skip
	// this task (commitplane.go). Empty when the commit plane is off or
	// the task is not content-addressable.
	TaskKey string
}

func (ex *Executor) runTask(spec taskSpec) {
	ps := ex.plan.Stages[spec.Stage]
	frag := ps.Fragments[spec.Frag]

	outs, cached, err := ex.computeFragment(ps, frag, spec)
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
	ex.dispatchBoundaries(ps, frag, spec, outs)
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

	recs   []data.Record
	cached bool
}

// computeFragment resolves the task's external inputs and interprets the
// fused operator chain.
func (ex *Executor) computeFragment(ps *core.PhysStage, frag *core.Fragment, spec taskSpec) (map[dag.VertexID][]data.Record, []recache.Key, error) {
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
			opID, rd, vtx := opID, rd, v
			in.Read[opID] = func() (dataflow.Iterator, error) {
				if rd.Cached && !ex.cfg.DisableCache {
					key := recache.Key{Vertex: opID, Partition: spec.Index}
					if recs, ok := ex.cache.Get(key); ok {
						ex.met.CacheHits.Add(1)
						ex.tr.Emit(obs.Event{Kind: obs.CacheHit, Stage: spec.Stage, Frag: spec.Frag,
							Task: spec.Index, Exec: ex.id, Note: "read"})
						return (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
					}
					ex.met.CacheMisses.Add(1)
					ex.tr.Emit(obs.Event{Kind: obs.CacheMiss, Stage: spec.Stage, Frag: spec.Frag,
						Task: spec.Index, Exec: ex.id, Note: "read"})
				}
				recs, err := materialize(rd.Source, spec.Index)
				if err != nil {
					return nil, err
				}
				// Reading external input has a real cost, paid only on
				// actual reads — cache hits skip it.
				if err := ex.throttle(len(recs) * dataflow.OpCost(vtx)); err != nil {
					return nil, err
				}
				if rd.Cached && !ex.cfg.DisableCache {
					key := recache.Key{Vertex: opID, Partition: spec.Index}
					if ex.cache.Put(key, recs) {
						cached = append(cached, key)
					}
				}
				return (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
			}
		}

		for _, si := range ps.InputsTo(opID) {
			if _, ok := spec.InputLocs[si.FromStage]; !ok {
				return nil, cached, fmt.Errorf("runtime: missing input location for stage %d", si.FromStage)
			}
			if si.Dep != dag.OneToOne && si.Dep != dag.OneToMany {
				return nil, cached, fmt.Errorf("runtime: transient operator %q has %v cross-stage input", v.Name, si.Dep)
			}
			fetches = append(fetches, &inputFetch{op: opID, si: si})
		}
	}

	// Issue the independent cross-stage fetches concurrently; each targets
	// a different parent edge, so serializing them just sums their network
	// round trips onto the task's critical path.
	err := storage.Fanout(len(fetches), storage.MaxFetchWorkers, func(i int) error {
		f := fetches[i]
		loc := spec.InputLocs[f.si.FromStage]
		coder, err := dataflow.OutputCoder(g.Vertex(f.si.FromVertex))
		if err != nil {
			return err
		}
		if f.si.Dep == dag.OneToOne {
			f.recs, f.cached, err = ex.fetchPartition(f.si, loc, spec.Index, coder)
		} else {
			f.recs, f.cached, err = ex.fetchBroadcast(f.si, loc, coder)
		}
		return err
	})
	if err != nil {
		return nil, cached, err
	}
	// Apply in collection (plan) order: record ordering and the reported
	// cache keys stay identical to the serial implementation.
	for _, f := range fetches {
		if f.si.Dep == dag.OneToOne {
			if f.cached {
				cached = append(cached, recache.Key{Vertex: f.si.FromVertex, Partition: spec.Index})
			}
			addTagged(in.Ext, f.op, f.si.Tag, f.recs)
		} else {
			if f.cached {
				cached = append(cached, recache.Key{Vertex: f.si.FromVertex, Partition: -1})
			}
			addTagged(in.Sides, f.op, f.si.Tag, f.recs)
		}
	}
	in.Throttle = ex.throttle
	outs, err := exec.RunFragment(g, frag.Ops, in)
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
	m[op][tag] = append(m[op][tag], recs...)
}

func materialize(src dataflow.Source, part int) ([]data.Record, error) {
	it, err := src.Open(part)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var recs []data.Record
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return recs, nil
		}
		recs = append(recs, r)
	}
}

// fetchStagePart pulls one partition of a located stage output. A
// location carrying commit-store chunks (the stage was skipped this run)
// is served from the CAS; otherwise the partition comes from its owner
// executor. With ring replication on (Config.ReplicateStageOutputs) the
// partition also lives on the next output executor, so a primary whose
// breaker is open is routed around without waiting for it, and a primary
// that fails with a transient error still gets one replica fallback
// before the caller sees the failure.
func fetchStagePart(dp *dataPlane, cas *storage.CommitClient, met *metrics.Job,
	job, stage int, loc stageLoc, part int, replicated bool) ([]byte, error) {
	if loc.Chunks != nil {
		if cas == nil {
			return nil, fmt.Errorf("runtime: stage %d is served from the commit store but this executor has no commit plane", stage)
		}
		payload, err := cas.GetChunk(loc.Chunks[part])
		if err != nil {
			return nil, err
		}
		met.Counter(metrics.NameCASBytesServed).Add(int64(len(payload)))
		return payload, nil
	}
	id := stageBlockID(job, stage, loc.Gen, part)
	primary := loc.Execs[part]
	if !replicated || len(loc.Execs) < 2 {
		return storage.FetchBlock(dp, "fetch", primary, id)
	}
	peer := loc.Execs[(part+1)%len(loc.Execs)]
	if dp.pol.quarantined(primary) {
		if payload, err := storage.FetchBlock(dp, "fetch", peer, id); err == nil {
			return payload, nil
		}
	}
	payload, err := storage.FetchBlock(dp, "fetch", primary, id)
	if err != nil && storage.IsTransient(err) {
		if fallback, ferr := storage.FetchBlock(dp, "fetch", peer, id); ferr == nil {
			return fallback, nil
		}
	}
	return payload, err
}

// fetchPartition pulls one aligned partition of a parent stage's output,
// through the input cache when the plan marked the edge cacheable. The
// second result reports whether the records are now resident in this
// executor's cache — hit or fresh fill alike — so the master's cache
// index can steer future tasks to this executor (§3.2.7). fetchBroadcast
// reports the same "resident here" semantics.
func (ex *Executor) fetchPartition(si core.StageInput, loc stageLoc, part int, coder data.Coder) ([]data.Record, bool, error) {
	if part >= loc.nParts() {
		return nil, false, fmt.Errorf("runtime: partition %d out of range for stage %d", part, si.FromStage)
	}
	fetch := func() ([]data.Record, error) {
		ex.tr.Emit(obs.Event{Kind: obs.FetchStarted, Stage: si.FromStage, Frag: part,
			Task: part, Exec: ex.id})
		payload, err := fetchStagePart(ex.dp, ex.cas, ex.met, ex.job, si.FromStage, loc, part, ex.cfg.ReplicateStageOutputs)
		if err != nil {
			return nil, err
		}
		ex.met.BytesFetched.Add(int64(len(payload)))
		ex.tr.Emit(obs.Event{Kind: obs.FetchDone, Stage: si.FromStage, Frag: part,
			Task: part, Exec: ex.id, Bytes: int64(len(payload))})
		return data.DecodeAll(coder, payload)
	}
	if ex.cfg.DisableCache || !si.Cached {
		recs, err := fetch()
		return recs, false, err
	}
	key := recache.Key{Vertex: si.FromVertex, Partition: part}
	if recs, ok := ex.cache.Get(key); ok {
		ex.met.CacheHits.Add(1)
		ex.tr.Emit(obs.Event{Kind: obs.CacheHit, Stage: si.FromStage, Frag: part,
			Task: part, Exec: ex.id, Note: "partition"})
		return recs, true, nil
	}
	ex.met.CacheMisses.Add(1)
	ex.tr.Emit(obs.Event{Kind: obs.CacheMiss, Stage: si.FromStage, Frag: part,
		Task: part, Exec: ex.id, Note: "partition"})
	recs, _, err := ex.flight.Do(key, func() ([]data.Record, error) {
		recs, err := fetch()
		if err != nil {
			return nil, err
		}
		ex.cache.Put(key, recs)
		return recs, nil
	})
	return recs, err == nil, err
}

// fetchBroadcast pulls every partition of a parent stage's output (a
// one-to-many side input) concurrently, with fan-out bounded by
// maxFetchWorkers. Cached broadcasts go through a singleflight group so
// concurrent task slots share one network fetch (§3.2.7: the data "only
// needs to be sent once to the executors").
//
// The boolean result matches fetchPartition: it reports whether the
// broadcast records are now resident in this executor's cache ("resident
// here"), which is what the master's cache index wants for steering —
// a hit, a fresh fill, and a singleflight-shared fill all qualify.
// (Previously a broadcast hit reported false while a partition hit
// reported true, so the index diverged for side-inputs.)
func (ex *Executor) fetchBroadcast(si core.StageInput, loc stageLoc, coder data.Coder) ([]data.Record, bool, error) {
	fetch := func() ([]data.Record, error) {
		ex.tr.Emit(obs.Event{Kind: obs.FetchStarted, Stage: si.FromStage, Frag: -1,
			Task: -1, Exec: ex.id, Note: "broadcast"})
		parts := make([][]data.Record, loc.nParts())
		var total int64
		err := storage.Fanout(loc.nParts(), storage.MaxFetchWorkers, func(part int) error {
			payload, err := fetchStagePart(ex.dp, ex.cas, ex.met, ex.job, si.FromStage, loc, part, ex.cfg.ReplicateStageOutputs)
			if err != nil {
				return err
			}
			ex.met.BytesFetched.Add(int64(len(payload)))
			atomic.AddInt64(&total, int64(len(payload)))
			parts[part], err = data.DecodeAll(coder, payload)
			return err
		})
		if err != nil {
			return nil, err
		}
		var recs []data.Record
		for _, p := range parts {
			recs = append(recs, p...)
		}
		ex.tr.Emit(obs.Event{Kind: obs.FetchDone, Stage: si.FromStage, Frag: -1,
			Task: -1, Exec: ex.id, Bytes: total, Note: "broadcast"})
		return recs, nil
	}

	if ex.cfg.DisableCache || !si.Cached {
		recs, err := fetch()
		return recs, false, err
	}
	key := recache.Key{Vertex: si.FromVertex, Partition: -1}
	if recs, ok := ex.cache.Get(key); ok {
		ex.met.CacheHits.Add(1)
		ex.tr.Emit(obs.Event{Kind: obs.CacheHit, Stage: si.FromStage, Frag: -1,
			Task: -1, Exec: ex.id, Note: "broadcast"})
		return recs, true, nil
	}
	ex.met.CacheMisses.Add(1)
	ex.tr.Emit(obs.Event{Kind: obs.CacheMiss, Stage: si.FromStage, Frag: -1,
		Task: -1, Exec: ex.id, Note: "broadcast"})
	recs, _, err := ex.flight.Do(key, func() ([]data.Record, error) {
		recs, err := fetch()
		if err != nil {
			return nil, err
		}
		ex.cache.Put(key, recs)
		return recs, nil
	})
	return recs, err == nil, err
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
	ex.met.BytesPushed.Add(int64(len(payload)))
}

// isFatal: fetch and network errors are retryable (caused by evictions,
// failures, or races with recovery); anything else — user function
// errors, coder mismatches — is a job bug and aborts the run.
func isFatal(err error) bool { return !storage.IsTransient(err) }

// aggBuffer merges the boundary outputs of several tasks running on the
// same executor before pushing (§3.2.7 partial aggregation). Data escapes
// when MaxTasks outputs accumulated or MaxDelay elapsed.
type aggBuffer struct {
	ex       *Executor
	stage    int
	gen      int
	frag     int
	receiver []string
	accCoder data.Coder
	fn       dataflow.CombineFn
	global   bool

	mu     sync.Mutex
	tables []*exec.AccTable // per receiver
	cover  []senderRef
	timer  *time.Timer
}

func (ex *Executor) aggBufferFor(ps *core.PhysStage, spec taskSpec, accCoder data.Coder,
	fn dataflow.CombineFn, global bool) *aggBuffer {

	k := aggKey{Stage: spec.Stage, Gen: spec.Gen, Frag: spec.Frag}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	b, ok := ex.aggbufs[k]
	if !ok {
		b = &aggBuffer{
			ex: ex, stage: spec.Stage, gen: spec.Gen, frag: spec.Frag,
			receiver: spec.Receivers, accCoder: accCoder, fn: fn, global: global,
		}
		b.reset()
		ex.aggbufs[k] = b
	}
	return b
}

func (b *aggBuffer) reset() {
	b.tables = make([]*exec.AccTable, len(b.receiver))
	for i := range b.tables {
		b.tables[i] = exec.NewAccTable(b.fn, b.global)
	}
	b.cover = nil
}

// deposit folds one task's per-receiver accumulator tables into the
// buffer and flushes if the task-count limit is reached.
func (b *aggBuffer) deposit(ref senderRef, perRecv []*exec.AccTable) {
	b.mu.Lock()
	for i, t := range perRecv {
		for _, r := range t.AccRecords() {
			b.tables[i].MergeAcc(r.Key, r.Value)
		}
	}
	b.cover = append(b.cover, ref)
	if len(b.cover) >= b.ex.cfg.aggMaxTasks() {
		tables, cover := b.take()
		b.mu.Unlock()
		b.push(tables, cover)
		return
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.ex.cfg.aggMaxDelay(), b.flushTimer)
	}
	b.mu.Unlock()
}

func (b *aggBuffer) take() ([]*exec.AccTable, []senderRef) {
	tables, cover := b.tables, b.cover
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.reset()
	return tables, cover
}

func (b *aggBuffer) flushTimer() {
	b.mu.Lock()
	b.timer = nil
	if len(b.cover) == 0 {
		b.mu.Unlock()
		return
	}
	tables, cover := b.take()
	b.mu.Unlock()
	b.push(tables, cover)
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

// push sends one aggregated frame per receiver, then commits every
// covered task through the master.
func (b *aggBuffer) push(tables []*exec.AccTable, cover []senderRef) {
	ex := b.ex
	var wg sync.WaitGroup
	errs := make([]error, len(b.receiver))
	payloads := make([][]byte, len(b.receiver))
	var total int64
	for i := range b.receiver {
		payload, err := encodeAccTable(b.accCoder, tables[i])
		if err != nil {
			errs[i] = err
			continue
		}
		payloads[i] = payload
		total += int64(len(payload))
	}
	// Attribute the aggregated frame's bytes evenly across the covered
	// tasks so per-task trace spans still sum to the frame size.
	shares := attributeBytes(total, len(cover))
	for ci, c := range cover {
		ex.tr.Emit(obs.Event{Kind: obs.PushStarted, Stage: b.stage, Frag: b.frag,
			Task: c.Index, Attempt: c.Attempt, Exec: ex.id,
			Bytes: shares[ci], Note: "aggregated"})
	}
	for i := range b.receiver {
		if errs[i] != nil {
			continue
		}
		f := &pushFrame{
			Job: ex.job, Stage: b.stage, Gen: b.gen, RecvIdx: i, Frag: b.frag,
			Cover:    cover,
			Sections: []pushSection{{Tag: "", Aggregated: true, Payload: payloads[i]}},
		}
		wg.Add(1)
		go func(i int, f *pushFrame, n int) {
			defer wg.Done()
			if err := sendPush(ex.dp, b.receiver[i], f); err != nil {
				errs[i] = err
				return
			}
			ex.met.BytesPushed.Add(int64(n))
		}(i, f, len(payloads[i]))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if ex.stopped() {
				return
			}
			for _, c := range cover {
				ex.send(evTaskFailed{
					ref:  taskRef{Job: ex.job, Stage: b.stage, Gen: b.gen, Frag: b.frag, Index: c.Index, Attempt: c.Attempt},
					Exec: ex.id, Err: err, Fatal: isFatal(err),
				})
			}
			return
		}
	}
	for _, c := range cover {
		ex.send(newOutputCommitted(taskRef{Job: ex.job, Stage: b.stage, Gen: b.gen, Frag: b.frag, Index: c.Index, Attempt: c.Attempt}))
	}
}

func encodeAccTable(coder data.Coder, t *exec.AccTable) ([]byte, error) {
	return data.EncodeAll(coder, t.AccRecords())
}
