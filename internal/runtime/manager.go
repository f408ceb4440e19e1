package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/recache"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// errManagerClosed fails jobs that were still outstanding when the
// manager shut down.
var errManagerClosed = errors.New("runtime: job manager closed")

// ManagerConfig parameterizes a resident JobManager.
type ManagerConfig struct {
	// Env describes the shared cell the manager arbitrates. A positive
	// Env.ReservedSlotBudget enables admission control: each job carves a
	// reserved-slot demand out of that budget on admission and returns it
	// on completion; jobs that don't fit wait in the admission queue (or
	// are rejected outright when they could never fit). A zero budget
	// disables admission control — every job is admitted immediately —
	// which is the single-job Run/RunPlan configuration.
	Env core.PolicyEnv

	// Tracer records fleet-wide events (container lifecycle, Job 0) and
	// is the default tracer for jobs submitted without their own.
	Tracer *obs.Tracer

	// Metrics is the fleet-wide registry: the fleet buffer folds container,
	// detector and job-lifecycle events into it (jobs_submitted/admitted/
	// queued/rejected/completed), and the event-queue overflow counter
	// lands here. Nil allocates one.
	Metrics *metrics.Job

	// Failure sets the heartbeat detector's timing. The detector and the
	// RPC policy on every data-plane connection pool (the manager's own
	// and each executor's) always run; the zero value is the defaults.
	Failure FailureConfig

	// Commits, when non-nil, enables the incremental re-execution plane
	// (DESIGN.md §14): the manager serves this content-addressed commit
	// store over dedicated simnet nodes, probes it with each submitted
	// plan's stage/task cache keys to skip already-computed work, and
	// writes finished reserved-stage outputs back as commits. The store
	// outlives the manager — hand the same instance to successive
	// managers (or runs) to carry commits across them.
	Commits *storage.CommitStore
}

// JobOptions carries per-job parameters for Submit.
type JobOptions struct {
	// Name labels the job in traces and errors. Default "job-<id>".
	Name string
	// ReservedSlots is the job's reserved-slot demand against the
	// manager's budget. Zero derives it from the job's plan env budget,
	// clamped to the cell budget.
	ReservedSlots int
	// Metrics is the job's own registry (task counts, bytes, JCT). Nil
	// allocates a fresh one.
	Metrics *metrics.Job
}

// JobHandle is the submitter's side of one job.
type JobHandle struct {
	jm *JobManager
	id int
	j  *jobRun
}

// ID returns the manager-assigned job id (1-based; tags the job's trace
// events).
func (h *JobHandle) ID() int { return h.id }

// Wait blocks until the job completes and returns its result. If ctx
// expires first the job is canceled and reports a timed-out result,
// mirroring the single-job Run semantics.
func (h *JobHandle) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-h.j.done:
	case <-ctx.Done():
		select {
		case h.jm.events <- evCancelJob{ID: h.id}:
		case <-h.jm.quit:
		case <-h.j.done:
		}
		<-h.j.done
	}
	return h.j.result, h.j.err
}

// taskLauncher is the master's dispatch surface onto one per-job
// executor: launch fragment tasks, start/cancel reserved receivers, and
// relay commits. *Executor is the production implementation; scheduler
// benchmarks and the legacy-oracle equivalence tests substitute
// recording fakes so the control plane can be driven without a data
// plane.
type taskLauncher interface {
	Launch(spec taskSpec)
	StartReceiver(spec recvSpec)
	CancelReceiver(stage, gen, idx int)
	Commit(stage, gen, recvIdx int, c msgCommit)
}

// jobRun is the manager's per-job state: the compiled plan, the stage
// state machines, per-job executors on each shared host, and the
// scheduler's scan cursor.
type jobRun struct {
	id   int
	name string
	// demand is the job's reserved-slot claim against the manager budget.
	demand int

	plan *core.Plan
	cfg  Config
	met  *metrics.Job
	tr   *obs.Buf // job-tagged buffer folding into met
	// Task-latency histograms, cached off met so the hot handlers skip
	// the registry lookup: launch→computed and launch→commit, in ns.
	histCompute *metrics.Histogram
	histCommit  *metrics.Histogram

	stages     []*stageRun
	cacheIndex map[recache.Key]map[string]bool
	execs      map[string]taskLauncher
	recvActive int
	recvPeak   int

	// cur is the job's scan position within one assignTasks round.
	cur taskCursor

	// pinned lists commit-store keys the submission probe pinned; they
	// are unpinned when the job resolves. casWG tracks in-flight commit
	// writes so a successful job's result is not delivered before its
	// manifests are durable in the store.
	pinned []string
	casWG  sync.WaitGroup

	finished bool
	failErr  error
	timedOut bool
	t0       time.Time

	done   chan struct{}
	result *Result
	err    error
}

// JobManager is a resident multi-job master (the tentpole refactor of
// the one-master-per-job runtime): it owns the shared cluster, admits
// jobs against a reserved-slot budget, runs every admitted job's §3.2
// master logic on one event loop, and divides transient slots across
// jobs round-robin, one task per job per turn.
type JobManager struct {
	cfg ManagerConfig
	cl  *cluster.Cluster
	net *simnet.Network
	met *metrics.Job // fleet registry
	// tr is the fleet buffer, folding into met. Its events carry Job 0
	// but for job lifecycle events, which name their job.
	tr *obs.Buf
	// dp carries manager-originated data-plane operations (progress
	// replication, output collection, commit-store probes).
	dp *dataPlane
	// fd is the heartbeat failure detector. beat() is fed by collector
	// goroutines; register/forget/tick run on the event loop.
	fd *failureDetector
	// commits is the incremental re-execution plane (nil when
	// ManagerConfig.Commits is unset): the served commit store, its
	// dedicated simnet nodes, and the master-side client.
	commits *commitPlane

	events chan event
	// overflow carries the first "event queue full" error out of the
	// cluster callbacks; the run loop turns it into a loud failure of
	// every job.
	overflow chan error

	// Event-loop-confined fleet state.
	hosts          map[string]*nodeHost
	kinds          map[string]cluster.Kind
	slotsFree      map[string]int
	transientOrder []string
	reservedOrder  []string
	rrTask         int
	rrRecv         int
	rrJob          int
	assignments    map[taskRef]string // outstanding slot holders
	// ordinals numbers transient containers in the order they joined;
	// an executor's home reserved container is its ordinal modulo the
	// live reserved count (homes.go).
	ordinals    map[string]int
	nextOrdinal int
	// qScratch is assignTasks' per-round queue of runnable jobs, reused
	// across rounds so steady-state scheduling allocates nothing.
	qScratch []*jobRun
	// Cached scheduler counters (metrics.go names; avoid per-event
	// registry lookups on the hot path).
	cSchedRounds   *metrics.Counter
	cTasksScanned  *metrics.Counter
	cSlotIndexHits *metrics.Counter

	// Event-loop-confined job state. order lists admitted job ids in
	// admission order and is the only iteration source for per-job
	// passes, keeping multi-job scheduling deterministic.
	jobs  map[int]*jobRun
	order []int
	queue []*jobRun // waiting for budget, in submission order

	budgetTotal int
	budgetFree  int
	// broken, once set, rejects all future submissions (the manager
	// dropped a cluster event and its fleet view can't be trusted).
	broken error

	mu     sync.Mutex // guards nextID (Submit runs on caller goroutines)
	nextID int

	quit          chan struct{}
	loopDone      chan struct{}
	stopCollector func()
	closeOnce     sync.Once
}

// newManager builds a JobManager without starting the cluster, the
// collector, or the event loop (tests drive handle() directly).
func newManager(cl *cluster.Cluster, mcfg ManagerConfig) *JobManager {
	met := mcfg.Metrics
	if met == nil {
		met = &metrics.Job{}
		mcfg.Metrics = met
	}
	jm := &JobManager{
		cfg:         mcfg,
		cl:          cl,
		net:         cl.Net(),
		met:         met,
		tr:          mcfg.Tracer.Buf(met, 0),
		events:      make(chan event, eventQueueCap),
		overflow:    make(chan error, 1),
		hosts:       make(map[string]*nodeHost),
		kinds:       make(map[string]cluster.Kind),
		slotsFree:   make(map[string]int),
		ordinals:    make(map[string]int),
		assignments: make(map[taskRef]string),
		jobs:        make(map[int]*jobRun),
		budgetTotal: mcfg.Env.ReservedSlotBudget,
		budgetFree:  mcfg.Env.ReservedSlotBudget,
		fd:          newFailureDetector(mcfg.Failure),
		quit:        make(chan struct{}),
		loopDone:    make(chan struct{}),
	}
	jm.dp = newDataPlane(jm.net, "master", met, jm.tr)
	if mcfg.Commits != nil {
		// Plane setup only fails on simnet exhaustion; the ids are
		// process-unique, so degrade to non-incremental rather than
		// refusing the whole manager.
		if cp, err := newCommitPlane(jm.net, mcfg.Commits, jm.dp); err == nil {
			jm.commits = cp
		}
	}
	jm.cSchedRounds = met.Counter(metrics.NameSchedRounds)
	jm.cTasksScanned = met.Counter(metrics.NameSchedTasksScanned)
	jm.cSlotIndexHits = met.Counter(metrics.NameSlotIndexHits)
	return jm
}

// NewJobManager starts a resident manager on cl: the cluster's
// containers come up, the result collector listens on the master node,
// and the event loop runs until Close. The manager owns cl's lifecycle
// from here; Close stops it. Detector timings out of order are refused
// before anything starts.
func NewJobManager(cl *cluster.Cluster, mcfg ManagerConfig) (*JobManager, error) {
	if err := mcfg.Failure.validate(); err != nil {
		return nil, err
	}
	jm := newManager(cl, mcfg)
	stop, err := jm.startCollector()
	if err != nil {
		return nil, err
	}
	jm.stopCollector = stop
	if err := cl.Start(jm); err != nil {
		stop()
		return nil, err
	}
	go jm.run()
	return jm, nil
}

// Cluster listener: callbacks convert to events. These run on cluster
// goroutines whose contract says they must not block, so a full event
// queue fails loudly (dropping the event and flagging the manager)
// instead of deadlocking the cluster.
func (jm *JobManager) ContainerLaunched(c *cluster.Container) {
	jm.postClusterEvent(evContainerLaunched{C: c})
}
func (jm *JobManager) ContainerEvicted(c *cluster.Container) {
	jm.postClusterEvent(evContainerEvicted{C: c})
}
func (jm *JobManager) ContainerFailed(c *cluster.Container) {
	jm.postClusterEvent(evContainerFailed{C: c})
}

// postClusterEvent enqueues a cluster-originated event without ever
// blocking. A dropped container event would leave the manager's view of
// the cluster permanently wrong, so overflow counts in metrics
// ("event_queue_overflow") and fails every job via the overflow channel
// rather than limping along.
func (jm *JobManager) postClusterEvent(ev event) {
	select {
	case jm.events <- ev:
	default:
		jm.met.Counter("event_queue_overflow").Add(1)
		select {
		case jm.overflow <- fmt.Errorf("runtime: master event queue full (cap %d), dropped %T", cap(jm.events), ev):
		default:
		}
	}
}

// Submit compiles the logical DAG and submits it.
func (jm *JobManager) Submit(g *dag.Graph, cfg Config, opts JobOptions) (*JobHandle, error) {
	plan, err := core.Compile(g, cfg.Plan)
	if err != nil {
		return nil, err
	}
	return jm.SubmitPlan(plan, cfg, opts)
}

// SubmitPlan submits an already compiled plan. The returned handle's
// Wait delivers the result; admission (or queueing, or rejection)
// happens asynchronously on the manager loop.
func (jm *JobManager) SubmitPlan(plan *core.Plan, cfg Config, opts JobOptions) (*JobHandle, error) {
	if cfg.Tracer == nil {
		cfg.Tracer = jm.cfg.Tracer
	}
	met := opts.Metrics
	if met == nil {
		met = &metrics.Job{}
	}
	demand := opts.ReservedSlots
	if demand <= 0 {
		if b := cfg.Plan.Env.ReservedSlotBudget; b > 0 && (jm.budgetTotal <= 0 || b < jm.budgetTotal) {
			demand = b
		} else {
			demand = jm.budgetTotal
		}
	}

	jm.mu.Lock()
	jm.nextID++
	id := jm.nextID
	jm.mu.Unlock()

	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("job-%d", id)
	}
	j := &jobRun{
		id:         id,
		name:       name,
		demand:     demand,
		plan:       plan,
		cfg:        cfg,
		met:        met,
		tr:         cfg.Tracer.Buf(met, id),
		stages:     make([]*stageRun, len(plan.Stages)),
		cacheIndex: make(map[recache.Key]map[string]bool),
		execs:      make(map[string]taskLauncher),
		t0:         time.Now(),
		done:       make(chan struct{}),
	}
	j.histCompute = met.Histogram("task_compute_ns")
	j.histCommit = met.Histogram("task_commit_ns")
	for i, ps := range plan.Stages {
		j.stages[i] = &stageRun{ps: ps}
	}
	j.tr.Emit(obs.Event{Kind: obs.PlanCompiled})
	jm.tr.Emit(obs.Event{Kind: obs.JobSubmitted, Job: id, Note: name})
	// Probe the commit store before the job is published to the event
	// loop: the jobRun is still private to this goroutine, so the probe's
	// network round trips never block the manager, and any stage or task
	// skips are in place before the first scheduling pass.
	jm.probeCommits(j)
	if demand > 0 {
		met.Counter("reserved_slots_budget").Store(int64(demand))
	}

	select {
	case jm.events <- evSubmit{j: j}:
	case <-jm.quit:
		return nil, errManagerClosed
	}
	return &JobHandle{jm: jm, id: id, j: j}, nil
}

// run is the manager event loop: the multi-job generalization of the old
// per-job master loop. A ticker drives the detector's staleness sweeps at
// the heartbeat period, so declarations happen on the loop, serialized
// with the recovery they trigger.
func (jm *JobManager) run() {
	defer close(jm.loopDone)
	tick := time.NewTicker(jm.cfg.Failure.heartbeatEvery())
	defer tick.Stop()
	for {
		select {
		case <-jm.quit:
			return
		case err := <-jm.overflow:
			jm.failAll(err)
		case <-tick.C:
			jm.handle(evDetectorTick{})
		case ev := <-jm.events:
			jm.handle(ev)
		}
	}
}

// handle processes one event, reaps finished jobs, and advances
// scheduling. Job-scoped events route by their Job id; events for
// departed jobs (stale executors, late results) drop harmlessly.
func (jm *JobManager) handle(ev event) {
	switch e := ev.(type) {
	case evInspect:
		// Snapshot requests see the state as of the events handled so
		// far, and never trigger scheduling themselves.
		e.reply <- jm.buildState()
		return
	case evSubmit:
		jm.admitOrQueue(e.j)
	case evCancelJob:
		jm.cancelJob(e.ID)
	case evContainerLaunched:
		jm.onLaunched(e.C)
	case evContainerEvicted:
		jm.onEvicted(e.C)
	case evContainerFailed:
		jm.onFailed(e.C)
	case evDetectorTick:
		jm.onDetectorTick()
	case evReceiverReady:
		if j := jm.jobs[e.Job]; j != nil {
			jm.onReceiverReady(j, e)
		}
	case evReceiverFailed:
		if j := jm.jobs[e.Job]; j != nil {
			jm.onReceiverFailed(j, e)
		}
	case *evTaskComputed:
		// Pooled event (events.go): copy the value out and return the
		// struct before dispatch so the handler can never observe reuse.
		val := *e
		putTaskComputed(e)
		if j := jm.jobs[val.ref.Job]; j != nil {
			jm.onTaskComputed(j, val)
		}
	case *evOutputCommitted:
		val := *e
		putOutputCommitted(e)
		if j := jm.jobs[val.Job]; j != nil {
			jm.onOutputCommitted(j, val)
		}
	case evTaskFailed:
		if j := jm.jobs[e.ref.Job]; j != nil {
			jm.onTaskFailed(j, e)
		}
	case evPullFailed:
		if j := jm.jobs[e.ref.Job]; j != nil {
			jm.onPullFailed(j, e)
		}
	case evReservedTaskDone:
		if j := jm.jobs[e.Job]; j != nil {
			jm.onReservedTaskDone(j, e)
		}
	case evResult:
		if j := jm.jobs[e.Job]; j != nil {
			jm.onResult(j, e)
		}
	}
	jm.reapFinished()
	jm.scheduleAll()
}

// admitOrQueue makes the admission decision for a newly submitted job.
func (jm *JobManager) admitOrQueue(j *jobRun) {
	if jm.broken != nil {
		jm.rejectJob(j, jm.broken)
		return
	}
	if jm.budgetTotal > 0 && j.demand > jm.budgetTotal {
		jm.rejectJob(j, fmt.Errorf("demand %d exceeds cell budget %d reserved slots", j.demand, jm.budgetTotal))
		return
	}
	if jm.budgetTotal <= 0 || j.demand <= jm.budgetFree {
		jm.admit(j)
		return
	}
	jm.tr.Emit(obs.Event{Kind: obs.JobQueued, Job: j.id, Note: fmt.Sprintf("pos %d", len(jm.queue))})
	jm.queue = append(jm.queue, j)
}

func (jm *JobManager) admit(j *jobRun) {
	if jm.budgetTotal > 0 {
		jm.budgetFree -= j.demand
	}
	j.t0 = time.Now()
	jm.jobs[j.id] = j
	jm.order = append(jm.order, j.id)
	jm.tr.Emit(obs.Event{Kind: obs.JobAdmitted, Job: j.id, Note: fmt.Sprintf("demand %d", j.demand)})
	for _, h := range jm.hostsInOrder() {
		jm.attachExecutor(j, h)
	}
}

// admitQueued admits queued jobs, in submission order, while the free
// budget fits the head. Strict head-of-line: a head that doesn't fit
// blocks later jobs that would, so no job is overtaken while queued.
func (jm *JobManager) admitQueued() {
	for len(jm.queue) > 0 {
		j := jm.queue[0]
		if jm.budgetTotal > 0 && j.demand > jm.budgetFree {
			return
		}
		jm.queue = jm.queue[1:]
		jm.admit(j)
	}
}

func (jm *JobManager) rejectJob(j *jobRun, cause error) {
	jm.tr.Emit(obs.Event{Kind: obs.JobRejected, Job: j.id, Note: cause.Error()})
	j.err = fmt.Errorf("runtime: job %q rejected: %w", j.name, cause)
	close(j.done)
}

// cancelJob abandons one job: an admitted job finishes as timed out; a
// queued job is removed and resolved immediately.
func (jm *JobManager) cancelJob(id int) {
	if j := jm.jobs[id]; j != nil {
		if !j.finished {
			j.timedOut = true
			j.finished = true
		}
		return
	}
	for i, q := range jm.queue {
		if q.id == id {
			jm.queue = slices.Delete(jm.queue, i, i+1)
			q.result = &Result{Plan: q.plan, Metrics: q.met.Snapshot(0, true), Progress: q.snapshotProgress()}
			jm.tr.Emit(obs.Event{Kind: obs.JobTimedOut, Job: q.id, Note: "canceled while queued"})
			close(q.done)
			// The removed job may have been the head that blocked the
			// jobs behind it.
			jm.admitQueued()
			return
		}
	}
}

// failAll is the event-queue-overflow response: every outstanding job
// fails, and the manager refuses new work.
func (jm *JobManager) failAll(err error) {
	if jm.broken == nil {
		jm.broken = err
	}
	for _, id := range slices.Clone(jm.order) {
		jm.abort(jm.jobs[id], err)
	}
	for _, q := range jm.queue {
		jm.rejectJob(q, err)
	}
	jm.queue = nil
	jm.reapFinished()
}

// reapFinished finalizes every job whose event handling marked it done.
func (jm *JobManager) reapFinished() {
	for _, id := range slices.Clone(jm.order) {
		if j := jm.jobs[id]; j != nil && j.finished {
			jm.finishJob(j)
		}
	}
}

// finishJob detaches a completed job from the fleet, returns its budget,
// resolves its handle, and admits queued jobs into the freed budget.
// Output collection for successful jobs runs on its own goroutine (the
// shared connection pool is thread-safe) so one job's collection never
// stalls its neighbors' event handling.
func (jm *JobManager) finishJob(j *jobRun) {
	jct := time.Since(j.t0)
	delete(jm.jobs, j.id)
	jm.order = slices.DeleteFunc(jm.order, func(x int) bool { return x == j.id })
	// Detach the job's executors; host stores stay intact so output
	// blocks remain fetchable during collection (block ids are
	// job-scoped, so nothing collides).
	for _, h := range jm.hosts {
		h.detach(j.id)
	}
	for ref, exec := range jm.assignments {
		if ref.Job == j.id {
			delete(jm.assignments, ref)
			jm.creditSlot(exec)
		}
	}
	if jm.budgetTotal > 0 {
		jm.budgetFree += j.demand
	}
	switch {
	case j.failErr != nil:
		jm.tr.Emit(obs.Event{Kind: obs.JobCompleted, Job: j.id, Note: "aborted"})
		j.err = j.failErr
		jm.releaseCommits(j)
		close(j.done)
	case j.timedOut:
		jm.tr.Emit(obs.Event{Kind: obs.JobTimedOut, Job: j.id, Note: "deadline expired"})
		j.result = &Result{Plan: j.plan, Metrics: j.met.Snapshot(jct, true), Progress: j.snapshotProgress()}
		jm.releaseCommits(j)
		close(j.done)
	default:
		jm.tr.Emit(obs.Event{Kind: obs.JobCompleted, Job: j.id, Note: "ok"})
		res := &Result{Plan: j.plan, Metrics: j.met.Snapshot(jct, false), Progress: j.snapshotProgress()}
		go func() {
			outputs, err := jm.collectOutputs(j)
			if err != nil {
				j.err = fmt.Errorf("runtime: collecting outputs: %w", err)
			} else {
				res.Outputs = outputs
				j.result = res
			}
			// The result is not delivered until in-flight manifest
			// commits land and probe pins are released: the next run
			// (often submitted immediately after Wait returns) must see
			// this run's commits.
			j.casWG.Wait()
			jm.unpinCommits(j)
			close(j.done)
		}()
	}
	jm.admitQueued()
}

// hostsInOrder returns live hosts in deterministic (reserved-then-
// transient, launch-order) sequence.
func (jm *JobManager) hostsInOrder() []*nodeHost {
	out := make([]*nodeHost, 0, len(jm.hosts))
	for _, id := range jm.reservedOrder {
		out = append(out, jm.hosts[id])
	}
	for _, id := range jm.transientOrder {
		out = append(out, jm.hosts[id])
	}
	return out
}

// attachExecutor gives job j an executor on host h.
func (jm *JobManager) attachExecutor(j *jobRun, h *nodeHost) {
	ex := newExecutor(j.id, h, jm.net, j.plan, j.cfg, j.met, jm.events, "master", jm.casNodes())
	j.execs[h.id] = ex
	h.attach(ex)
}

// releaseCommits is the failed/timed-out-job analogue of the success
// path's pin release: waits for stray commit writes and unpins off the
// event loop.
func (jm *JobManager) releaseCommits(j *jobRun) {
	if jm.commits == nil || len(j.pinned) == 0 {
		return
	}
	go func() {
		j.casWG.Wait()
		jm.unpinCommits(j)
	}()
}

// Close shuts the manager down: the loop exits, the cluster stops, hosts
// and pooled connections close, and any still-outstanding job resolves
// with an error.
func (jm *JobManager) Close() {
	jm.closeOnce.Do(func() {
		close(jm.quit)
		<-jm.loopDone
		if jm.stopCollector != nil {
			jm.stopCollector()
		}
		jm.cl.Stop()
		for _, h := range jm.hosts {
			h.shutdown()
		}
		jm.dp.pool.Close()
		if jm.commits != nil {
			jm.commits.close()
		}
		// The loop is dead, so its state is safe to touch. Jobs that
		// finished successfully already left jm.order (their done channel
		// belongs to the collection goroutine); everything still listed
		// is unresolved.
		fail := func(j *jobRun) {
			select {
			case <-j.done:
			default:
				j.err = errManagerClosed
				close(j.done)
			}
		}
		for _, id := range jm.order {
			fail(jm.jobs[id])
		}
		for _, q := range jm.queue {
			fail(q)
		}
	})
}

// startCollector serves the manager node's data plane: terminal transient
// tasks push their results here, tagged by job.
func (jm *JobManager) startCollector() (func(), error) {
	node := jm.cl.MasterNode()
	l, err := node.Listen()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	go storage.Serve(l, stop, func(op byte, e *data.Encoder, d *data.Decoder) error {
		return jm.handleCollectorOp(op, e, d, stop)
	})
	var once sync.Once
	return func() { once.Do(func() { close(stop) }) }, nil
}

func (jm *JobManager) handleCollectorOp(op byte, e *data.Encoder, d *data.Decoder, stop <-chan struct{}) error {
	switch op {
	case frameHeartbeat:
		// Fire-and-forget liveness beat: feed the detector (off the
		// event loop; declarations happen on ticks) and keep reading.
		hb, err := readHeartbeat(d)
		if err != nil {
			return err
		}
		jm.fd.beat(hb.ID, hb.Open, time.Now())
		return nil
	case frameResult:
		f, err := readResultFrame(d)
		if err != nil {
			return err
		}
		select {
		case jm.events <- evResult{Job: f.Job, Stage: f.Stage, Gen: f.Gen, Index: f.Index, Attempt: f.Attempt, Payload: f.Payload}:
		case <-stop:
			return errManagerClosed
		}
		return storage.Answer(e, true, nil)
	default:
		return fmt.Errorf("runtime: unknown collector frame %q", op)
	}
}
