package sparklike

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/recache"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// Config parameterizes the baseline engine.
type Config struct {
	// Plan carries physical-planning knobs (reduce parallelism).
	Plan core.PlanConfig
	// Tracer, when non-nil, records the run's structured event stream
	// with the same schema the Pado runtime emits, so traces from both
	// engines are directly comparable. Nil disables tracing.
	Tracer *obs.Tracer
	// Checkpoint enables the Spark-checkpoint baseline: stage outputs
	// are asynchronously checkpointed to a stable-storage service on
	// the reserved nodes, and children pull from that service. Without
	// it, executors run on both container kinds and lost partitions are
	// recomputed through lineage (plain Spark).
	Checkpoint bool
	// StorageDiskBW limits each storage node's disk bandwidth in
	// checkpoint mode (bytes/second; 0 = unlimited).
	StorageDiskBW int64
	// FetchRetries and FetchRetryWait model Spark's shuffle-fetch retry
	// behavior (spark.shuffle.io.maxRetries / retryWait): a fetch from
	// a lost executor is retried before the task reports the failure,
	// which is how lost outputs are discovered — the driver's map
	// output locations go stale silently.
	FetchRetries   int
	FetchRetryWait time.Duration
}

const (
	// cacheCapacity is the per-executor RDD cache budget in bytes.
	cacheCapacity = 64 << 20
	// eventQueue sizes the master's event channel.
	eventQueue = 8192
)

// Result mirrors the Pado runtime's result shape.
type Result struct {
	Outputs map[dag.VertexID][]data.Record
	Metrics metrics.Snapshot
	Plan    *SPlan
}

// Events.
type event interface{}

type evLaunched struct{ C *cluster.Container }
type evGone struct{ C *cluster.Container } // eviction or failure

type evTaskDone struct {
	ref  taskRef
	Exec string
}

type evCheckpointed struct{ ref taskRef }

type evTaskFailed struct {
	ref   taskRef
	Exec  string
	Err   error
	Fatal bool
}

// evFetchFailed reports a lost input partition; the master resubmits the
// producing task, which may in turn fail its own fetches — the cascading
// recomputation chain of §2.2.
type evFetchFailed struct {
	ref       taskRef
	Exec      string
	FromStage int
	Part      int
	// Owner is the stale location the fetch targeted.
	Owner string
}

type evCached struct {
	Exec string
	Key  recache.Key
}

type evCollected struct {
	outputs map[dag.VertexID][]data.Record
	err     error
	failed  []evFetchFailed
}

// Task state.
type tState int

const (
	tWaiting tState = iota
	tRunning
	tDone
)

type sTask struct {
	state   tState
	exec    string
	attempt int
	fails   int
	ck      bool // checkpoint landed (checkpoint mode only)
}

type sStageRun struct {
	ps      *SStage
	tasks   []*sTask
	started bool
}

// master drives the baseline engine's DAG scheduler.
type master struct {
	cfg  Config
	plan *SPlan
	cl   *cluster.Cluster
	net  *simnet.Network
	met  *metrics.Job
	tr   *obs.Buf // trace buffer (nil = tracing off); Emit is mutex-guarded

	events chan event

	execs       map[string]*executor
	order       []string
	rr          int
	slotsFree   map[string]int
	assignments map[taskRef]string
	cacheIndex  map[recache.Key]map[string]bool

	stages []*sStageRun

	// driver is where parallelism-1 stages run and results are collected:
	// the master process, like Spark's driver. It is never evicted.
	driver taskEnv
	ckSvc  *storage.Service

	collecting bool
	finished   bool
	failErr    error
	outputs    map[dag.VertexID][]data.Record
}

const maxTaskFailures = 1000

// Run compiles the logical DAG at shuffle boundaries and executes it.
// Like the Pado runtime, Run owns the cluster: one job per cluster value.
func Run(ctx context.Context, cl *cluster.Cluster, g *dag.Graph, cfg Config) (*Result, error) {
	plan, err := BuildPlan(g, cfg.Plan)
	if err != nil {
		return nil, err
	}
	met := &metrics.Job{}
	cfg.Tracer.FeedCounters(met)
	m := &master{
		cfg: cfg, plan: plan, cl: cl, net: cl.Net(), met: met,
		tr:          cfg.Tracer.Buf(),
		events:      make(chan event, eventQueue),
		execs:       make(map[string]*executor),
		slotsFree:   make(map[string]int),
		assignments: make(map[taskRef]string),
		cacheIndex:  make(map[recache.Key]map[string]bool),
	}
	m.driver = taskEnv{
		execID: driverLoc, plan: plan, cfg: cfg, met: met, tr: m.tr,
		store:   storage.NewLocalStore(),
		pool:    storage.NewPoolTransport(m.net, driverLoc).Counting(met),
		send:    func(ev event) { m.events <- ev },
		stopped: func() bool { return false },
	}
	defer m.driver.pool.Close()
	m.stages = make([]*sStageRun, len(plan.Stages))
	for i, ps := range plan.Stages {
		s := &sStageRun{ps: ps, tasks: make([]*sTask, ps.Parallelism)}
		for j := range s.tasks {
			s.tasks[j] = &sTask{state: tWaiting}
		}
		m.stages[i] = s
	}
	defer cl.Stop()

	// Serve driver-resident stage outputs from the master node.
	mn := cl.MasterNode()
	l, err := mn.Listen()
	if err != nil {
		return nil, err
	}
	stopServe := make(chan struct{})
	defer close(stopServe)
	go storage.ServeBlocks(l, m.driver.store, nil, stopServe, nil)

	if err := cl.Start(m); err != nil {
		return nil, err
	}

	// Checkpoint mode: the reserved containers host the stable-storage
	// service instead of executors (§5.1.2: "uses reserved containers
	// to run a non-replicated GlusterFS cluster").
	if cfg.Checkpoint {
		var nodes []*simnet.Node
		for _, c := range cl.Containers(cluster.Reserved) {
			nodes = append(nodes, c.Node)
		}
		if len(nodes) == 0 {
			return nil, fmt.Errorf("sparklike: checkpoint mode needs reserved containers")
		}
		m.ckSvc = storage.NewServiceDisk(nodes, cfg.StorageDiskBW)
		if err := m.ckSvc.Start(); err != nil {
			return nil, err
		}
		m.driver.ck = storage.NewClientTransport(m.driver.pool, m.ckSvc)
	}

	start := time.Now()
	timedOut := false
loop:
	for !m.finished {
		select {
		case <-ctx.Done():
			timedOut = true
			break loop
		case ev := <-m.events:
			m.handle(ev)
		}
	}
	jct := time.Since(start)

	if m.failErr != nil {
		return nil, m.failErr
	}
	if m.ckSvc != nil {
		met.Gauge(metrics.GaugeStorageUsedBytes).Set(m.ckSvc.UsedBytes())
	}
	res := &Result{Plan: plan, Metrics: met.Snapshot(jct, timedOut)}
	if timedOut {
		return res, nil
	}
	res.Outputs = m.outputs
	return res, nil
}

func (m *master) ContainerLaunched(c *cluster.Container) { m.events <- evLaunched{C: c} }
func (m *master) ContainerEvicted(c *cluster.Container)  { m.events <- evGone{C: c} }
func (m *master) ContainerFailed(c *cluster.Container)   { m.events <- evGone{C: c} }

func (m *master) abort(err error) {
	if m.failErr == nil {
		m.failErr = err
	}
	m.finished = true
}

func (m *master) handle(ev event) {
	switch e := ev.(type) {
	case evLaunched:
		m.onLaunched(e.C)
	case evGone:
		m.onGone(e.C)
	case evTaskDone:
		m.onTaskDone(e)
	case evCheckpointed:
		m.onCheckpointed(e)
	case evTaskFailed:
		m.onTaskFailed(e)
	case evFetchFailed:
		m.onFetchFailed(e)
	case evCached:
		m.onCached(e)
	case evCollected:
		m.onCollected(e)
	}
	if !m.finished {
		m.schedule()
	}
}

func (m *master) onLaunched(c *cluster.Container) {
	// Checkpoint mode keeps executors off the reserved (storage) nodes.
	if m.cfg.Checkpoint && c.Kind == cluster.Reserved {
		return
	}
	ex, err := newExecutor(c.ID, c.Node, m.net, m.plan, m.cfg, m.met, m.events, m.ckSvc, c.CPU)
	if err != nil {
		return
	}
	m.tr.Emit(obs.Event{Kind: obs.ContainerUp, Exec: c.ID, Note: c.Kind.String()})
	m.execs[c.ID] = ex
	m.order = append(m.order, c.ID)
	m.slotsFree[c.ID] = c.Slots
}

func (m *master) onGone(c *cluster.Container) {
	if _, ok := m.execs[c.ID]; !ok {
		return
	}
	m.met.Evictions.Add(1)
	m.tr.Emit(obs.Event{Kind: obs.ContainerEvicted, Exec: c.ID})
	if ex := m.execs[c.ID]; ex != nil {
		ex.shutdown()
	}
	delete(m.execs, c.ID)
	delete(m.slotsFree, c.ID)
	m.order = slices.DeleteFunc(m.order, func(x string) bool { return x == c.ID })
	for key, set := range m.cacheIndex {
		delete(set, c.ID)
		if len(set) == 0 {
			delete(m.cacheIndex, key)
		}
	}
	for ref, exec := range m.assignments {
		if exec == c.ID {
			delete(m.assignments, ref)
		}
	}
	// The driver learns of the executor loss from the resource manager
	// (Spark's onExecutorLost) and unregisters everything it held:
	// running tasks and finished-but-unpulled outputs go back to
	// waiting. Recomputation stays lazy — a lost partition is rebuilt
	// only when lineage demands it — and tasks already in flight race
	// the notification and burn shuffle-fetch retries against the dead
	// node first.
	for _, s := range m.stages {
		for i, t := range s.tasks {
			if t.exec != c.ID {
				continue
			}
			switch {
			case t.state == tRunning:
				m.requeue(s.ps.ID, i, t)
			case t.state == tDone && !(m.cfg.Checkpoint && t.ck):
				m.requeue(s.ps.ID, i, t)
			}
		}
	}
}

func (m *master) requeue(stage, index int, t *sTask) {
	t.state = tWaiting
	t.exec = ""
	t.ck = false
	t.attempt++
	m.met.RelaunchedTasks.Add(1)
	m.tr.Emit(obs.Event{Kind: obs.TaskRelaunched, Stage: stage, Task: index, Attempt: t.attempt})
}

func (m *master) taskAt(ref taskRef) (*sStageRun, *sTask) {
	if ref.Stage < 0 || ref.Stage >= len(m.stages) {
		return nil, nil
	}
	s := m.stages[ref.Stage]
	if ref.Index >= len(s.tasks) {
		return nil, nil
	}
	t := s.tasks[ref.Index]
	if t.attempt != ref.Attempt {
		return nil, nil
	}
	return s, t
}

func (m *master) freeSlot(ref taskRef) {
	if exec, ok := m.assignments[ref]; ok {
		delete(m.assignments, ref)
		if _, alive := m.slotsFree[exec]; alive {
			m.slotsFree[exec]++
		}
	}
}

func (m *master) onTaskDone(e evTaskDone) {
	m.freeSlot(e.ref)
	_, t := m.taskAt(e.ref)
	if t == nil || t.state != tRunning {
		return
	}
	t.state = tDone
	t.exec = e.Exec
	m.tr.Emit(obs.Event{Kind: obs.TaskFinished, Stage: e.ref.Stage, Task: e.ref.Index,
		Attempt: e.ref.Attempt, Exec: e.Exec})
	if s, _ := m.taskAt(e.ref); s != nil {
		done := true
		for _, st := range s.tasks {
			if st.state != tDone {
				done = false
				break
			}
		}
		if done {
			m.tr.Emit(obs.Event{Kind: obs.StageComplete, Stage: s.ps.ID})
		}
	}
	m.checkDone()
}

func (m *master) onCheckpointed(e evCheckpointed) {
	_, t := m.taskAt(e.ref)
	if t == nil || t.state != tDone {
		return
	}
	t.ck = true
	m.tr.Emit(obs.Event{Kind: obs.PushCommitted, Stage: e.ref.Stage, Task: e.ref.Index,
		Attempt: e.ref.Attempt, Exec: t.exec, Note: "checkpoint"})
}

func (m *master) onTaskFailed(e evTaskFailed) {
	m.freeSlot(e.ref)
	if e.Fatal {
		m.abort(fmt.Errorf("sparklike: task %v failed: %w", e.ref, e.Err))
		return
	}
	_, t := m.taskAt(e.ref)
	if t == nil || t.state != tRunning {
		return
	}
	t.fails++
	if t.fails > maxTaskFailures {
		m.abort(fmt.Errorf("sparklike: task %v failed %d times: %w", e.ref, t.fails, e.Err))
		return
	}
	m.tr.Emit(obs.Event{Kind: obs.TaskFailed, Stage: e.ref.Stage, Task: e.ref.Index,
		Attempt: e.ref.Attempt, Exec: e.Exec, Note: e.Err.Error()})
	m.requeue(e.ref.Stage, e.ref.Index, t)
}

// onFetchFailed is the lineage path: the consumer retries and the lost
// producer partition is resubmitted, possibly cascading further when the
// producer's own inputs turn out to be lost.
func (m *master) onFetchFailed(e evFetchFailed) {
	m.freeSlot(e.ref)
	if s, t := m.taskAt(e.ref); t != nil && t.state == tRunning {
		t.fails++
		if t.fails > maxTaskFailures {
			m.abort(fmt.Errorf("sparklike: task %v exceeded fetch retries", e.ref))
			return
		}
		// A FetchFailed fails the whole stage attempt (Spark 2.0's
		// DAGScheduler): sibling tasks still running under this
		// attempt are abandoned and re-run after the parents are
		// fixed. Their in-flight work is wasted.
		for i, st := range s.tasks {
			if st.state == tRunning {
				m.requeue(s.ps.ID, i, st)
			}
		}
	}
	// A fetch failure against a vanished executor reveals that the
	// executor is gone: unregister every finished output it held, as
	// Spark's MapOutputTracker does on a FetchFailed, so one failure
	// resubmits all co-located losses instead of discovering them one
	// round trip at a time.
	if e.Owner != "" && e.Owner != driverLoc && e.Owner != storageLoc {
		if _, alive := m.execs[e.Owner]; !alive {
			for _, s := range m.stages {
				if s.ps.Driver {
					continue
				}
				for i, t := range s.tasks {
					if t.exec == e.Owner && t.state == tDone && !(m.cfg.Checkpoint && t.ck) {
						m.requeue(s.ps.ID, i, t)
					}
				}
			}
			return
		}
	}
	if e.FromStage < 0 || e.FromStage >= len(m.stages) {
		return
	}
	ps := m.stages[e.FromStage]
	if e.Part < 0 || e.Part >= len(ps.tasks) {
		return
	}
	pt := ps.tasks[e.Part]
	// Only resubmit if the block is actually unavailable: the producer
	// is done but its executor has vanished (or its checkpoint never
	// landed). A live producer means the consumer just raced a restart.
	if pt.state == tDone {
		available := false
		if m.cfg.Checkpoint {
			available = pt.ck || m.plan.Stages[e.FromStage].Driver
		} else {
			_, available = m.execs[pt.exec]
			if m.plan.Stages[e.FromStage].Driver {
				available = true
			}
		}
		if !available {
			m.requeue(e.FromStage, e.Part, pt)
		}
	}
}

func (m *master) onCached(e evCached) {
	set := m.cacheIndex[e.Key]
	if set == nil {
		set = make(map[string]bool)
		m.cacheIndex[e.Key] = set
	}
	set[e.Exec] = true
}

func (m *master) onCollected(e evCollected) {
	m.collecting = false
	if e.err != nil {
		m.abort(e.err)
		return
	}
	if len(e.failed) > 0 {
		for _, f := range e.failed {
			m.onFetchFailed(f)
		}
		return
	}
	m.outputs = e.outputs
	m.finished = true
}

// inputsReady reports whether task i of stage s can start, and gathers
// the input locations.
func (m *master) inputsReady(s *sStageRun, i int) (map[int][]string, bool) {
	locs := make(map[int][]string)
	for _, si := range s.ps.Inputs {
		if _, ok := locs[si.FromStage]; ok {
			continue
		}
		ps := m.stages[si.FromStage]
		need := allPartsOf(si.Dep, i, len(ps.tasks))
		ls := make([]string, len(ps.tasks))
		for _, p := range need {
			t := ps.tasks[p]
			if t.state != tDone {
				return nil, false
			}
			switch {
			case m.plan.Stages[si.FromStage].Driver:
				ls[p] = driverLoc
			case m.cfg.Checkpoint:
				if !t.ck {
					if _, alive := m.execs[t.exec]; !alive {
						// The un-checkpointed output died with its
						// executor; rewrite it.
						m.requeue(si.FromStage, p, t)
					}
					return nil, false
				}
				ls[p] = storageLoc
			default:
				// Brief stale window only: executor losses are
				// unregistered when the resource manager's
				// notification arrives.
				ls[p] = t.exec
			}
		}
		locs[si.FromStage] = ls
	}
	return locs, true
}

func allPartsOf(dep dag.DepType, taskIdx, parentParts int) []int {
	if dep == dag.OneToOne {
		return []int{taskIdx}
	}
	out := make([]int, parentParts)
	for i := range out {
		out[i] = i
	}
	return out
}

// demanded computes which stages lineage actually requires right now:
// incomplete terminal stages, and — transitively — parents of demanded
// incomplete stages. Spark recomputes lost partitions lazily, on demand,
// which is exactly what serializes cascading recomputations (§2.2): a
// lost partition is only rebuilt when a consumer needs it, and the
// consumer waits. Stage ids are topological (a parent's id is below its
// child's), so one pass from the last stage down reaches every ancestor.
func (m *master) demanded() []bool {
	d := make([]bool, len(m.stages))
	complete := make([]bool, len(m.stages))
	for i, s := range m.stages {
		complete[i] = true
		for _, t := range s.tasks {
			if t.state != tDone {
				complete[i] = false
				break
			}
		}
	}
	for i := len(m.stages) - 1; i >= 0; i-- {
		s := m.stages[i]
		if s.ps.Terminal() && !complete[i] {
			d[i] = true
		}
		if d[i] && !complete[i] {
			for _, pid := range s.ps.Parents {
				d[pid] = true
			}
		}
	}
	return d
}

// schedule launches every runnable task that lineage demands.
func (m *master) schedule() {
	demanded := m.demanded()
	for _, s := range m.stages {
		if !demanded[s.ps.ID] {
			continue
		}
		for i, t := range s.tasks {
			if t.state != tWaiting {
				continue
			}
			locs, ready := m.inputsReady(s, i)
			if !ready {
				continue
			}
			if !s.started {
				s.started = true
				m.met.OriginalTasks.Add(int64(len(s.tasks)))
				m.tr.Emit(obs.Event{Kind: obs.StageScheduled, Stage: s.ps.ID})
			}
			spec := sTaskSpec{Stage: s.ps.ID, Index: i, Attempt: t.attempt, InputLocs: locs}
			if s.ps.Driver {
				t.state = tRunning
				t.exec = driverLoc
				m.tr.Emit(obs.Event{Kind: obs.TaskLaunched, Stage: s.ps.ID, Task: i,
					Attempt: t.attempt, Exec: driverLoc})
				m.runDriverTask(spec)
				continue
			}
			exec := m.pickExecutor(s.ps, i)
			if exec == "" {
				return // no free slots
			}
			t.state = tRunning
			t.exec = exec
			m.slotsFree[exec]--
			m.tr.Emit(obs.Event{Kind: obs.TaskLaunched, Stage: s.ps.ID, Task: i,
				Attempt: t.attempt, Exec: exec})
			m.assignments[spec.ref()] = exec
			m.execs[exec].Launch(spec)
		}
	}
	m.checkDone()
}

// pickExecutor prefers an executor holding one of the task's cached reads
// (ties broken by lowest executor id, as in the Pado master, so placement
// does not depend on map order), then round-robins over free slots.
func (m *master) pickExecutor(ps *SStage, taskIdx int) string {
	for _, opID := range ps.Ops {
		if rd, ok := m.plan.Graph.Vertex(opID).Op.(*dataflow.ReadOp); ok && rd.Cached {
			best := ""
			for exID := range m.cacheIndex[recache.Key{Vertex: opID, Partition: taskIdx}] {
				if m.slotsFree[exID] > 0 && (best == "" || exID < best) {
					best = exID
				}
			}
			if best != "" {
				return best
			}
		}
	}
	for i := 0; i < len(m.order); i++ {
		exID := m.order[m.rr%len(m.order)]
		m.rr++
		if m.slotsFree[exID] > 0 {
			return exID
		}
	}
	return ""
}

// runDriverTask executes a parallelism-1 stage on the master process,
// like Spark's driver-side aggregation; the driver is never evicted.
func (m *master) runDriverTask(spec sTaskSpec) {
	go func() {
		if err := runTask(m.driver, spec); err != nil {
			reportTaskError(m.driver.send, spec, driverLoc, err)
		}
	}()
}

// checkDone starts output collection once every terminal task is done
// (and checkpointed where applicable).
func (m *master) checkDone() {
	if m.collecting || m.finished {
		return
	}
	type fetchSpec struct {
		stage int
		root  dag.VertexID
		locs  []string
	}
	var fetches []fetchSpec
	for _, s := range m.stages {
		if !s.ps.Terminal() {
			continue
		}
		locs := make([]string, len(s.tasks))
		for i, t := range s.tasks {
			if t.state != tDone {
				return
			}
			switch {
			case s.ps.Driver:
				locs[i] = driverLoc
			case m.cfg.Checkpoint:
				if !t.ck {
					if _, alive := m.execs[t.exec]; !alive {
						m.requeue(s.ps.ID, i, t)
					}
					return
				}
				locs[i] = storageLoc
			default:
				locs[i] = t.exec
			}
		}
		fetches = append(fetches, fetchSpec{stage: s.ps.ID, root: s.ps.Root, locs: locs})
	}

	m.collecting = true
	driver, plan, met := m.driver, m.plan, m.met
	go func() {
		outputs := make(map[dag.VertexID][]data.Record)
		var failed []evFetchFailed
		for _, f := range fetches {
			coder, err := dataflow.OutputCoder(plan.Graph.Vertex(f.root))
			if err != nil {
				m.events <- evCollected{err: err}
				return
			}
			var recs []data.Record
			for p, owner := range f.locs {
				id := wholeID(f.stage, p)
				var payload []byte
				if owner != driverLoc {
					payload, err = driver.fetchBlock(owner, id)
				} else if b, ok := driver.store.Get(id); ok {
					payload = b // driver-resident output: already in this process
				} else {
					err = storage.ErrNotFound{Key: id}
				}
				if err != nil {
					// Stage -1 marks a collection fetch: there is no
					// consumer task to requeue, only the producer.
					failed = append(failed, evFetchFailed{ref: taskRef{Stage: -1}, FromStage: f.stage, Part: p})
					err = nil
					continue
				}
				met.BytesFetched.Add(int64(len(payload)))
				part, derr := data.DecodeAll(coder, payload)
				if derr != nil {
					m.events <- evCollected{err: derr}
					return
				}
				recs = append(recs, part...)
			}
			outputs[f.root] = recs
		}
		if len(failed) > 0 {
			m.events <- evCollected{failed: failed}
			return
		}
		m.events <- evCollected{outputs: outputs}
	}()
}
