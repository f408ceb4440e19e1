package sparklike

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// storageLoc is the location sentinel for checkpointed blocks.
const storageLoc = "@storage"

// driverLoc is the location of driver-resident stage outputs.
const driverLoc = "master"

func wholeID(stage, part int) string { return fmt.Sprintf("sw/%d/%d", stage, part) }
func bucketID(stage, part int, consumer dag.VertexID, bucket int) string {
	return fmt.Sprintf("sb/%d/%d/%d/%d", stage, part, consumer, bucket)
}

// sTaskSpec describes one task attempt handed to an executor (or run on
// the driver for parallelism-1 stages).
type sTaskSpec struct {
	Stage   int
	Index   int
	Attempt int
	// InputLocs maps parent stage id to the executor holding each
	// partition ("@storage" in checkpoint mode, "master" for driver
	// stage outputs).
	InputLocs map[int][]string
}

type taskRef struct {
	Stage, Index, Attempt int
}

func (s sTaskSpec) ref() taskRef { return taskRef{Stage: s.Stage, Index: s.Index, Attempt: s.Attempt} }

// taskEnv is where a task runs — a regular executor or the driver — and
// everything it runs with.
type taskEnv struct {
	execID string
	plan   *SPlan
	cfg    Config
	met    *metrics.Job
	tr     *obs.Buf // trace buffer (nil = tracing off)
	store  *storage.LocalStore
	cache  *recache.Cache  // nil on the driver, which does not cache
	cpu    *simnet.Limiter // nil = unlimited compute capacity
	// pool carries every fetch and checkpoint put/get the node issues. It
	// is the bare pool, with no RPC policy on top: Spark discovers a stale
	// location by burning FetchRetries × FetchRetryWait against it, and
	// that behaviour is what the baseline models.
	pool    *storage.PoolTransport
	ck      *storage.Client // non-nil in checkpoint mode; rides pool
	stop    <-chan struct{}
	send    func(event)
	stopped func() bool
}

// executor runs stage tasks: it fetches inputs (shuffle pulls,
// broadcasts, aligned partitions), interprets the fused operator chain,
// and materializes the output blocks in its local store — where they
// remain until pulled, and die with the container on eviction.
type executor struct {
	taskEnv
	events   chan<- event
	stopCh   chan struct{}
	stopOnce sync.Once
}

// newExecutor starts an executor on node. svc is the stable-storage
// service in checkpoint mode, nil otherwise.
func newExecutor(id string, node *simnet.Node, net *simnet.Network, plan *SPlan, cfg Config,
	met *metrics.Job, events chan<- event, svc *storage.Service, cpu *simnet.Limiter) (*executor, error) {

	ex := &executor{events: events, stopCh: make(chan struct{})}
	ex.taskEnv = taskEnv{
		execID: id, plan: plan, cfg: cfg, met: met,
		tr:    cfg.Tracer.Buf(met, 0),
		store: storage.NewLocalStore(),
		cache: recache.New(cacheCapacity),
		cpu:   cpu,
		pool:  storage.NewPoolTransport(net, id).Counting(met),
		stop:  ex.stopCh, send: ex.sendEvent, stopped: ex.isStopped,
	}
	if svc != nil {
		ex.ck = storage.NewClientTransport(ex.pool, svc)
	}
	l, err := node.Listen()
	if err != nil {
		return nil, err
	}
	go storage.ServeBlocks(l, ex.store, nil, ex.stop, nil)
	go func() {
		<-node.Down()
		ex.shutdown()
	}()
	return ex, nil
}

func (ex *executor) shutdown() {
	ex.stopOnce.Do(func() {
		close(ex.stopCh)
		ex.pool.Close()
	})
}

func (ex *executor) isStopped() bool {
	select {
	case <-ex.stopCh:
		return true
	default:
		return false
	}
}

func (ex *executor) sendEvent(ev event) {
	select {
	case ex.events <- ev:
	case <-ex.stopCh:
	}
}

// Launch runs a task attempt on its own goroutine.
func (ex *executor) Launch(spec sTaskSpec) {
	go func() {
		if err := runTask(ex.taskEnv, spec); err != nil && !ex.isStopped() {
			reportTaskError(ex.send, spec, ex.execID, err)
		}
	}()
}

// fetchFailure marks a failed pull so the master can resubmit the lost
// parent partition (the lineage/cascade path). Owner names the executor
// the stale location pointed at, so the master can unregister everything
// it held, like Spark's MapOutputTracker does on a FetchFailed.
type fetchFailure struct {
	FromStage int
	Part      int
	Owner     string
	Err       error
}

func (f *fetchFailure) Error() string {
	return fmt.Sprintf("input stage %d partition %d unavailable: %v", f.FromStage, f.Part, f.Err)
}

func reportTaskError(send func(event), spec sTaskSpec, exec string, err error) {
	var ff *fetchFailure
	if errors.As(err, &ff) {
		send(evFetchFailed{ref: spec.ref(), Exec: exec, FromStage: ff.FromStage, Part: ff.Part, Owner: ff.Owner})
		return
	}
	send(evTaskFailed{ref: spec.ref(), Exec: exec, Err: err, Fatal: !storage.IsTransient(err)})
}

// runTask executes one stage task end to end.
func runTask(env taskEnv, spec sTaskSpec) error {
	st := env.plan.Stages[spec.Stage]
	g := env.plan.Graph

	in := exec.Inputs{
		Ext:   make(map[dag.VertexID]map[string][]data.Record),
		Sides: make(map[dag.VertexID]map[string][]data.Record),
		Read:  make(map[dag.VertexID]func() (dataflow.Iterator, error)),
		Accs:  make(map[dag.VertexID][]data.Record),
	}
	if env.cpu != nil {
		in.Throttle = func(records int) error { return env.cpu.Acquire(records, env.stop) }
	}
	for _, opID := range st.Ops {
		v := g.Vertex(opID)
		if _, ok := v.Op.(*dataflow.ReadOp); ok {
			in.Read[opID] = func() (dataflow.Iterator, error) { return env.openRead(st.ID, v, spec.Index, in.Throttle) }
		}
		for _, si := range st.InputsTo(opID) {
			if err := env.fetchInput(st, si, spec, in); err != nil {
				return err
			}
		}
	}

	want, folds := stageOutputs(g, st)
	outs, err := exec.Run(g, st.Ops, in, want)
	if err != nil {
		return err
	}

	// Materialize output blocks.
	root := outs[st.Root]
	coder, err := dataflow.OutputCoder(g.Vertex(st.Root))
	if err != nil {
		return err
	}
	var ckBlocks []string
	if st.OutWhole {
		payload, err := data.EncodeAll(coder, root)
		if err != nil {
			return err
		}
		id := wholeID(st.ID, spec.Index)
		env.store.Put(id, payload)
		ckBlocks = append(ckBlocks, id)
	}
	for i, bs := range st.OutBuckets {
		payloads, err := bucketPayloads(g, bs, coder, root, folds[i])
		if err != nil {
			return err
		}
		for b, payload := range payloads {
			id := bucketID(st.ID, spec.Index, bs.Consumer, b)
			env.store.Put(id, payload)
			ckBlocks = append(ckBlocks, id)
		}
	}

	env.send(evTaskDone{ref: spec.ref(), Exec: env.execID})

	// Checkpoint mode: asynchronously copy the blocks to stable storage
	// (§5.1.2, task-level asynchronous checkpointing at shuffle
	// boundaries). The commit event fires only when all copies landed.
	if env.ck != nil && !st.Driver {
		go func() {
			env.tr.Emit(obs.Event{Kind: obs.PushStarted, Stage: spec.Stage, Task: spec.Index,
				Attempt: spec.Attempt, Exec: env.execID, Note: "checkpoint"})
			for _, id := range ckBlocks {
				payload, ok := env.store.Get(id)
				if !ok {
					return // evicted mid-checkpoint
				}
				if err := env.ck.Put(id, payload); err != nil {
					return
				}
				env.met.Counter(metrics.NameBytesCheckpointed).Add(int64(len(payload)))
			}
			env.send(evCheckpointed{ref: spec.ref()})
		}()
	}
	return nil
}

// stageOutputs says what a task takes from its stage run. A shuffle
// consumer that takes folded input (exec.Combiner) gets Spark's map-side
// combine: the root's records are folded, as they are emitted, into one
// accumulator table per bucket, returned at the consumer's index of
// st.OutBuckets. The root itself is held only for whole output and raw
// buckets.
func stageOutputs(g *dag.Graph, st *SStage) (exec.Outputs, [][]*exec.AccTable) {
	folds := make([][]*exec.AccTable, len(st.OutBuckets))
	var sinks []func(data.Record)
	keep := st.OutWhole
	for i, bs := range st.OutBuckets {
		comb := exec.Combiner(g, bs.Consumer)
		if comb == nil {
			keep = true
			continue
		}
		var fold func(data.Record)
		folds[i], fold = exec.FoldSink(comb, bs.N)
		sinks = append(sinks, fold)
	}
	var want exec.Outputs
	if keep {
		want.Keep = []dag.VertexID{st.Root}
	}
	if len(sinks) > 0 {
		want.Sinks = map[dag.VertexID]func(data.Record){st.Root: func(r data.Record) {
			for _, fold := range sinks {
				fold(r)
			}
		}}
	}
	return want, folds
}

// bucketPayloads encodes a map task's output as the bs.N shuffle buckets of
// one consumer: the accumulator tables stageOutputs folded for it, encoded
// with the combine's accumulator coder, which the reduce side merges; or,
// when folded is nil, the raw records, hash-partitioned.
func bucketPayloads(g *dag.Graph, bs BucketSpec, coder data.Coder, root []data.Record, folded []*exec.AccTable) ([][]byte, error) {
	if folded != nil {
		return exec.EncodeAccs(exec.Combiner(g, bs.Consumer).AccCoder, folded)
	}
	// Size each bucket for an even split up front; skewed buckets still
	// grow past the hint.
	hint := (len(root) + bs.N - 1) / bs.N
	groups := make([][]data.Record, bs.N)
	for _, r := range root {
		p := data.Partition(r.Key, bs.N)
		if groups[p] == nil {
			groups[p] = make([]data.Record, 0, hint)
		}
		groups[p] = append(groups[p], r)
	}
	payloads := make([][]byte, bs.N)
	for b := range groups {
		payload, err := data.EncodeAll(coder, groups[b])
		if err != nil {
			return nil, err
		}
		payloads[b] = payload
	}
	return payloads, nil
}

func (env taskEnv) openRead(stage int, v *dag.Vertex, part int, charge func(tokens int) error) (dataflow.Iterator, error) {
	cache := env.cache
	if !v.Op.(*dataflow.ReadOp).Cached {
		cache = nil
	}
	it, filled, err := cache.Read(v, part, env.tr, obs.Event{Stage: stage, Task: part, Exec: env.execID, Note: "read"}, charge)
	if filled {
		env.send(evCached{Exec: env.execID, Key: recache.Key{Vertex: v.ID, Partition: part}})
	}
	return it, err
}

// fetchInput resolves one cross-stage input of a task.
func (env taskEnv) fetchInput(st *SStage, si SInput, spec sTaskSpec, in exec.Inputs) error {
	locs, ok := spec.InputLocs[si.FromStage]
	if !ok {
		return fmt.Errorf("sparklike: missing locations for stage %d", si.FromStage)
	}
	coder, err := dataflow.OutputCoder(env.plan.Graph.Vertex(si.FromVertex))
	if err != nil {
		return err
	}
	// Buckets for a combine that takes folded input hold the map tasks'
	// accumulators (bucketPayloads).
	var comb *dataflow.CombineOp
	if si.Dep == dag.ManyToMany {
		comb = exec.Combiner(env.plan.Graph, si.ToOp)
	}
	if comb != nil {
		coder = comb.AccCoder
	}

	fetchOne := func(part int, id string) ([]data.Record, error) {
		// Spark-style fetch retries: the location may be stale (the
		// executor was evicted); the failure is only reported after
		// the configured retries, each preceded by a wait.
		env.tr.Emit(obs.Event{Kind: obs.FetchStarted, Stage: si.FromStage, Frag: part,
			Task: part, Exec: env.execID})
		var payload []byte
		var err error
		for attempt := 0; ; attempt++ {
			payload, err = env.fetchBlock(locs[part], id)
			if err == nil {
				break
			}
			if attempt >= env.cfg.FetchRetries || env.stopped() {
				return nil, &fetchFailure{FromStage: si.FromStage, Part: part, Owner: locs[part], Err: err}
			}
			select {
			case <-time.After(env.cfg.FetchRetryWait):
			case <-env.stop:
				return nil, &fetchFailure{FromStage: si.FromStage, Part: part, Owner: locs[part], Err: err}
			}
		}
		env.met.Counter(metrics.NameBytesFetched).Add(int64(len(payload)))
		env.tr.Emit(obs.Event{Kind: obs.FetchDone, Stage: si.FromStage, Frag: part,
			Task: part, Exec: env.execID, Bytes: int64(len(payload))})
		return data.DecodeAll(coder, payload)
	}

	fetchAllWhole := func() ([]data.Record, error) {
		return fetchAll(len(locs), func(p int) ([]data.Record, error) {
			return fetchOne(p, wholeID(si.FromStage, p))
		})
	}

	var recs []data.Record
	switch si.Dep {
	case dag.OneToOne:
		recs, err = fetchOne(spec.Index, wholeID(si.FromStage, spec.Index))
	case dag.OneToMany:
		// Broadcasts are cached per executor, like Spark's broadcast
		// variables: concurrent slots share one fetch.
		recs, err = env.cache.Load(recache.Key{Vertex: si.FromVertex, Partition: recache.Broadcast},
			env.tr, obs.Event{Stage: si.FromStage, Frag: -1, Task: -1, Exec: env.execID, Note: "broadcast"},
			fetchAllWhole)
	case dag.ManyToOne:
		recs, err = fetchAllWhole()
	case dag.ManyToMany:
		// Shuffle reads pull buckets from every map location with
		// bounded parallelism, like Spark's shuffle fetcher.
		recs, err = fetchAll(len(locs), func(p int) ([]data.Record, error) {
			return fetchOne(p, bucketID(si.FromStage, p, si.ToOp, spec.Index))
		})
	}
	if err != nil {
		return err
	}
	if si.Dep == dag.OneToMany {
		if m := in.Sides[si.ToOp]; m == nil {
			in.Sides[si.ToOp] = map[string][]data.Record{si.Tag: recs}
		} else {
			m[si.Tag] = append(m[si.Tag], recs...)
		}
		return nil
	}
	if comb != nil {
		if prev := in.Accs[si.ToOp]; prev == nil {
			in.Accs[si.ToOp] = recs
		} else {
			in.Accs[si.ToOp] = append(prev, recs...)
		}
		return nil
	}
	if m := in.Ext[si.ToOp]; m == nil {
		in.Ext[si.ToOp] = map[string][]data.Record{si.Tag: recs}
	} else {
		m[si.Tag] = append(m[si.Tag], recs...)
	}
	return nil
}

func (env taskEnv) fetchBlock(owner, id string) ([]byte, error) {
	if owner == storageLoc {
		return env.ck.Get(id)
	}
	return storage.FetchBlock(env.pool, "fetch", owner, id)
}

// fetchAll pulls n partitions over the shared bounded fan-out and
// concatenates them in partition order. Like Spark's shuffle fetcher it
// gives up at the first failed block: a FetchFailed fails the whole stage
// attempt, so partitions not yet started are skipped rather than each
// burning its own retries.
func fetchAll(n int, fetch func(p int) ([]data.Record, error)) ([]data.Record, error) {
	parts := make([][]data.Record, n)
	var failed atomic.Bool
	err := storage.Fanout(n, storage.MaxFetchWorkers, func(p int) (err error) {
		if failed.Load() {
			return nil
		}
		if parts[p], err = fetch(p); err != nil {
			failed.Store(true)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, recs := range parts {
		total += len(recs)
	}
	out := make([]data.Record, 0, total)
	for _, recs := range parts {
		out = append(out, recs...)
	}
	return out, nil
}
