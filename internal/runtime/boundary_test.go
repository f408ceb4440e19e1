package runtime

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/simnet"
	"pado/internal/storage"
	"pado/internal/trace"
)

// TestCoverCommitAtomicUnderEviction is the regression for the stranded
// frame: several tasks share one aggregated frame, and their executor is
// evicted after the push was acknowledged but before the master applied
// the commit. While the commit was one event per covered task, an eviction
// between two of them left the first task committed and the rest
// relaunched; receivers then dropped the shared frame as superseded, the
// committed task's data went with it and the stage never finalized. With
// one all-or-nothing commit per frame set the whole cover relaunches.
// Everything is real (cluster, hosts, executors, master logic); the test
// only plays the manager's event loop so it can put the eviction exactly
// between the acknowledged push and the commit.
func TestCoverCommitAtomicUnderEviction(t *testing.T) {
	p, expect := buildWordCount(8, 300)
	// Two transient nodes with four slots each: every node runs four
	// tasks at once, so its buffer flushes at the AggMaxTasks default
	// with a four-task cover.
	cl := newTestCluster(t, 2, 2, trace.RateNone)
	tr := obs.New()
	jm := newManager(cl, ManagerConfig{Tracer: tr})
	var err error
	if jm.stopCollector, err = jm.startCollector(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(jm); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(jm.loopDone) // this test was the loop
		jm.Close()
	}()
	h, err := jm.Submit(p.Graph(), Config{}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var res *Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = h.Wait(ctx)
	}()

	var held *evOutputCommitted // the commit the eviction overtakes
	var cover []senderRef
	victim := ""
loop:
	for {
		select {
		case <-done:
			break loop
		case ev := <-jm.events:
			if c, ok := ev.(*evOutputCommitted); ok && victim == "" && len(c.Cover) >= 2 {
				held, cover = c, c.Cover
				victim = h.j.stages[c.Stage].frags[c.Frag].tasks[cover[0].Index].exec
				if err := cl.EvictNow(victim); err != nil {
					t.Fatal(err)
				}
				continue
			}
			jm.handle(ev)
			if e, ok := ev.(evContainerEvicted); ok && held != nil && e.C.ID == victim {
				jm.handle(held)
				held = nil
			}
		}
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if res.Metrics.TimedOut {
		t.Fatal("stage never finalized: a task stayed committed behind a dropped frame")
	}
	if victim == "" {
		t.Fatal("no multi-task cover was committed; the scenario was not exercised")
	}
	if got := res.Metrics.RelaunchedTasks; got < int64(len(cover)) {
		t.Errorf("relaunched %d tasks, want the whole cover of %d", got, len(cover))
	}
	covered := make(map[senderRef]bool)
	for _, c := range cover {
		covered[c] = true
	}
	finalized := 0
	for _, ev := range tr.Events() {
		switch {
		case ev.Kind == obs.PushCommitted && covered[senderRef{Index: ev.Task, Attempt: ev.Attempt}]:
			t.Errorf("task %d attempt %d committed although its cover was stale", ev.Task, ev.Attempt)
		case ev.Kind == obs.TaskFinished && ev.Frag == obs.ReservedFrag:
			finalized++
		}
	}
	if want := len(h.j.stages[0].recvDone); finalized != want {
		t.Errorf("%d reserved-task completions, want each of the %d receivers to finalize once", finalized, want)
	}
	checkWordCount(t, res, expect)
}

// recLauncher records what the master asks one executor to do.
type recLauncher struct {
	launched []taskSpec
	started  []recvSpec
	commits  []msgCommit
}

func (l *recLauncher) Launch(spec taskSpec)            { l.launched = append(l.launched, spec) }
func (l *recLauncher) StartReceiver(spec recvSpec)     { l.started = append(l.started, spec) }
func (l *recLauncher) CancelReceiver(int, int, int)    {}
func (l *recLauncher) Commit(_, _, _ int, c msgCommit) { l.commits = append(l.commits, c) }
func (l *recLauncher) ref(job int, s taskSpec) taskRef {
	return taskRef{Job: job, Stage: s.Stage, Gen: s.Gen, Frag: s.Frag, Index: s.Index, Attempt: s.Attempt}
}

// newScriptedManager admits one job on an unstarted manager whose fleet is
// one reserved and one transient node served by a recLauncher, and runs
// the first scheduling pass. The test drives handle() from there.
func newScriptedManager(t *testing.T, mk planMaker) (*JobManager, *JobHandle, *recLauncher) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Transient: 1, Reserved: 1})
	if err != nil {
		t.Fatal(err)
	}
	jm := newManager(cl, ManagerConfig{})
	h, err := jm.SubmitPlan(mk(t), Config{DisableCache: true}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jm.handle(<-jm.events) // evSubmit, with the fleet still empty
	l := &recLauncher{}
	jm.registerNode("r00", cluster.Reserved, 4)
	jm.registerNode("t00", cluster.Transient, 16) // room for every task and its relaunch
	h.j.execs["r00"], h.j.execs["t00"] = l, l
	jm.handle(evDetectorTick{}) // no node is registered with the detector: just a scheduling pass
	return jm, h, l
}

// TestReservedDoneBeforeLastReady: StartReceiver runs the receiver before
// the master has handled its ready event, so a reserved task with nothing
// to wait for — MLR's first stage is a reserved root with no transient
// fragment and no parent — can report done while the stage is still
// starting receivers. The completion must count; dropped, the stage never
// completes and the job hangs.
func TestReservedDoneBeforeLastReady(t *testing.T) {
	jm, h, l := newScriptedManager(t, mkMLR)
	if len(l.started) != 1 || l.started[0].Expected != 0 {
		t.Fatalf("receivers started: %+v, want the one zero-expected receiver of stage 0", l.started)
	}
	spec := l.started[0]
	s := h.j.stages[spec.Stage]
	if s.status != sStartingReceivers {
		t.Fatalf("stage %d status %d, want starting receivers", spec.Stage, s.status)
	}
	jm.handle(evReservedTaskDone{Job: h.id, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index, Exec: "r00", Bytes: 1})
	jm.handle(evReceiverReady{Job: h.id, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index})
	if s.status != sDone {
		t.Fatalf("stage %d status %d after done-then-ready, want done: the early completion was dropped", spec.Stage, s.status)
	}
	if len(l.started) == 1 {
		t.Error("the child stage did not start after its parent completed")
	}
}

// TestCoverCommitAllOrNothing drives the master with a two-task cover one
// of whose members was relaunched before the commit arrived: nothing may
// commit, the member that is still current relaunches too, and the fresh
// attempts then commit together with one relay per task and receiver.
func TestCoverCommitAllOrNothing(t *testing.T) {
	jm, h, l := newScriptedManager(t, mkMR)
	for _, spec := range l.started {
		jm.handle(evReceiverReady{Job: h.id, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index})
	}
	if len(l.launched) < 2 {
		t.Fatalf("launched %d tasks, want at least 2", len(l.launched))
	}
	a, b := l.launched[0], l.launched[1]
	fr := h.j.stages[a.Stage].frags[a.Frag]
	jm.handle(newTaskComputed(l.ref(h.id, a), "t00", nil))
	jm.handle(newTaskComputed(l.ref(h.id, b), "t00", nil))
	jm.handle(evTaskFailed{ref: l.ref(h.id, b), Exec: "t00", Err: errOracleTask})
	if got := fr.tasks[b.Index].attempt; got != 1 {
		t.Fatalf("task b attempt %d after its failure, want 1", got)
	}

	stale := []senderRef{{Index: a.Index, Attempt: 0}, {Index: b.Index, Attempt: 0}}
	jm.handle(newOutputCommitted(h.id, a.Stage, a.Gen, a.Frag, stale))
	if fr.nCommitted != 0 || len(l.commits) != 0 {
		t.Fatalf("stale cover committed %d tasks and relayed %d commits, want none", fr.nCommitted, len(l.commits))
	}
	for _, idx := range []int{a.Index, b.Index} {
		if tk := fr.tasks[idx]; tk.attempt != 1 || tk.state == tCommitted {
			t.Errorf("task %d: attempt %d state %d, want attempt 1 relaunched", idx, tk.attempt, tk.state)
		}
	}

	fresh := []senderRef{{Index: a.Index, Attempt: 1}, {Index: b.Index, Attempt: 1}}
	jm.handle(newOutputCommitted(h.id, a.Stage, a.Gen, a.Frag, fresh))
	if fr.nCommitted != 2 {
		t.Fatalf("fresh cover committed %d tasks, want 2", fr.nCommitted)
	}
	if want := 2 * len(l.started); len(l.commits) != want {
		t.Fatalf("%d commit relays, want one per task and receiver (%d)", len(l.commits), want)
	}
	jm.handle(newOutputCommitted(h.id, a.Stage, a.Gen, a.Frag, fresh)) // a duplicate changes nothing
	if fr.nCommitted != 2 || fr.tasks[a.Index].state != tCommitted {
		t.Errorf("duplicate commit: nCommitted %d, task state %d", fr.nCommitted, fr.tasks[a.Index].state)
	}
}

// TestFetchStage pins the one inbound path for the three kinds of part
// list its callers pass — a task's aligned partition, a broadcast, a
// receiver's gather in its own order: records come back concatenated in
// part order whatever the fetch timing, bytes_fetched counts every payload
// once, and exactly one fetch_started/fetch_done pair carrying the caller's
// identity and the summed bytes brackets the transfer.
func TestFetchStage(t *testing.T) {
	const job, stage, gen, nParts = 3, 5, 2, 4
	net := simnet.New(simnet.Config{})
	hosts := make([]*nodeHost, 2)
	for i := range hosts {
		id := fmt.Sprintf("r%d", i)
		node, err := net.AddNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if hosts[i], err = newNodeHost(&cluster.Container{ID: id, Kind: cluster.Reserved, Node: node, Slots: 1}); err != nil {
			t.Fatal(err)
		}
		defer hosts[i].shutdown()
	}
	if _, err := net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	// Partition p holds p+1 records on host p%2: distinct sizes and keys,
	// so a swapped or dropped part shows in both records and bytes.
	coder := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	loc := stageLoc{Gen: gen}
	payloadLen := make([]int64, nParts)
	for part := 0; part < nParts; part++ {
		recs := make([]data.Record, part+1)
		for i := range recs {
			recs[i] = data.KV(fmt.Sprintf("p%d-%d", part, i), int64(part))
		}
		payload, err := data.EncodeAll(coder, recs)
		if err != nil {
			t.Fatal(err)
		}
		h := hosts[part%2]
		h.store.Put(stageBlockID(job, stage, gen, part), payload)
		payloadLen[part] = int64(len(payload))
		loc.Execs = append(loc.Execs, h.id)
	}

	for _, tc := range []struct {
		name  string
		parts []int
		ev    obs.Event
	}{
		{"partition", []int{2}, obs.Event{Stage: stage, Frag: 2, Task: 2, Exec: "client"}},
		{"broadcast", allParts(loc), obs.Event{Stage: stage, Frag: -1, Task: -1, Exec: "client", Note: "broadcast"}},
		{"receiver", []int{3, 0, 2}, obs.Event{Stage: stage, Frag: obs.ReservedFrag, Task: 1, Exec: "client", Note: "receiver"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := &metrics.Job{}
			tr := obs.New()
			dp := newDataPlane(net, "client", met, nil)
			defer dp.pool.Close()
			recs, err := fetchStage(dp, nil, met, tr.JobBuf(job), job, tc.ev, loc, tc.parts, coder)
			if err != nil {
				t.Fatal(err)
			}
			var wantKeys []string
			var wantBytes int64
			for _, part := range tc.parts {
				for i := 0; i <= part; i++ {
					wantKeys = append(wantKeys, fmt.Sprintf("p%d-%d", part, i))
				}
				wantBytes += payloadLen[part]
			}
			var gotKeys []string
			for _, r := range recs {
				gotKeys = append(gotKeys, r.Key.(string))
			}
			if !reflect.DeepEqual(gotKeys, wantKeys) {
				t.Errorf("records %v, want part order %v", gotKeys, wantKeys)
			}
			if got := met.BytesFetched.Load(); got != wantBytes {
				t.Errorf("bytes_fetched = %d, want %d", got, wantBytes)
			}
			started, done := tc.ev, tc.ev
			started.Kind, started.Job = obs.FetchStarted, job
			done.Kind, done.Job, done.Bytes = obs.FetchDone, job, wantBytes
			var got []obs.Event
			for _, ev := range tr.Events() {
				ev.T = 0
				got = append(got, ev)
			}
			if want := []obs.Event{started, done}; !reflect.DeepEqual(got, want) {
				t.Errorf("events %+v, want %+v", got, want)
			}
		})
	}

	t.Run("out of range", func(t *testing.T) {
		met := &metrics.Job{}
		tr := obs.New()
		dp := newDataPlane(net, "client", met, nil)
		defer dp.pool.Close()
		if _, err := fetchStage(dp, nil, met, tr.JobBuf(job), job, obs.Event{Stage: stage}, loc, []int{nParts}, coder); err == nil {
			t.Fatal("fetched a partition past the end of the location")
		}
		if n := len(tr.Events()); n != 0 || met.BytesFetched.Load() != 0 {
			t.Errorf("a rejected part list emitted %d events and counted %d bytes", n, met.BytesFetched.Load())
		}
	})
}

// TestReceiverPull drives the receiver's one pull path with a batch that
// holds both kinds of commit — a pull-mode sender's parked output and a
// skipped task's chunk — and the case that hung the pull ablation when
// pulls were first batched: another receiver's failed pull has already had
// a sender relaunched, so one batch carries the dead attempt's commit and
// the new attempt's. The failed pull must drop only its own commit, and so
// must the pull of a chunk the store no longer has.
func TestReceiverPull(t *testing.T) {
	const job, stage, gen, recvIdx = 2, 1, 3, 0
	net := simnet.New(simnet.Config{})
	for _, id := range []string{"r0", "cas0"} {
		if _, err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	node, err := net.AddNode("t1")
	if err != nil {
		t.Fatal(err)
	}
	sender, err := newNodeHost(&cluster.Container{ID: "t1", Kind: cluster.Transient, Node: node, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.shutdown()
	svc := storage.NewCommitService(storage.NewCommitStore(), []*simnet.Node{net.Node("cas0")})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	met := &metrics.Job{}
	dp := newDataPlane(net, "r0", met, nil)
	defer dp.pool.Close()
	events := make(chan event, 4)
	ex := &Executor{job: job, id: "r0", dp: dp, met: met, events: events, stop: make(chan struct{}),
		cas: storage.NewCommitClient(dp, svc.NodeIDs())}
	r := &receiver{ex: ex, spec: recvSpec{Stage: stage, Gen: gen, Index: recvIdx, PullMode: true},
		committed: make(map[fragSender]msgCommit)}

	parked, err := sectionsBlock([]pushSection{{Payload: []byte("parked")}})
	if err != nil {
		t.Fatal(err)
	}
	sender.store.Put(taskBlockID(job, stage, gen, 0, 7, 1, recvIdx), parked)
	skipped, err := sectionsBlock([]pushSection{{Payload: []byte("skipped")}})
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := ex.cas.PutChunk(skipped)
	if err != nil {
		t.Fatal(err)
	}

	dead := msgCommit{Frag: 0, Index: 7, Attempt: 0, Exec: "t0"} // t0 went with its eviction
	live := msgCommit{Frag: 0, Index: 7, Attempt: 1, Exec: "t1"}
	skip := msgCommit{Frag: 0, Index: 8, Chunk: chunk}
	lost := msgCommit{Frag: 0, Index: 9, Chunk: storage.HashChunk([]byte("collected under the job"))}
	r.committed[fragSender{Index: 7}] = live // the batch's bookkeeping kept the newer attempt
	r.committed[fragSender{Index: 8}] = skip
	r.committed[fragSender{Index: 9}] = lost
	// The lost chunk is refused in the middle of the round that also
	// carries the stored one.
	if !r.pull([]msgCommit{dead, lost, live, skip}) {
		t.Fatal("pull reported a stopping executor")
	}

	if got := r.committed[fragSender{Index: 7}]; got != live {
		t.Errorf("after the dead attempt's pull failed, task 7 is committed as %+v, want the live attempt %+v", got, live)
	}
	if _, ok := r.committed[fragSender{Index: 9}]; ok {
		t.Error("task 9 is still committed although its chunk is gone")
	}
	for _, want := range []taskRef{{Index: 7, Attempt: 0}, {Index: 9, Attempt: 0}} {
		select {
		case ev := <-events:
			if f, ok := ev.(evPullFailed); !ok || f.ref.Index != want.Index || f.ref.Attempt != want.Attempt {
				t.Errorf("event %+v, want evPullFailed for task %d attempt %d", ev, want.Index, want.Attempt)
			}
		default:
			t.Errorf("the failed pull of task %d was not reported", want.Index)
		}
	}
	var got []string
	for _, f := range r.staged {
		got = append(got, fmt.Sprintf("%d.%d:%s", f.Cover[0].Index, f.Cover[0].Attempt, f.Sections[0].Payload))
		if f.Job != job || f.Stage != stage || f.Gen != gen || f.RecvIdx != recvIdx || len(f.Cover) != 1 {
			t.Errorf("staged frame head %+v does not match the receiver and its commit", f)
		}
	}
	if want := []string{"7.1:parked", "8.0:skipped"}; !reflect.DeepEqual(got, want) {
		t.Errorf("staged %v, want %v", got, want)
	}
	if f, s := met.BytesFetched.Load(), met.Counter(metrics.NameCASBytesServed).Load(); f != int64(len(parked)) || s != int64(len(skipped)) {
		t.Errorf("bytes_fetched = %d, cas_bytes_served = %d; want the parked block's %d and the chunk's %d", f, s, len(parked), len(skipped))
	}
}
