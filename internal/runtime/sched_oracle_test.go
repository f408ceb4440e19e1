package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dataflow"
	"pado/internal/recache"
	"pado/internal/workloads"
)

// Legacy-oracle equivalence tests: the scheduler (master.go) and the verbatim pre-refactor full rescan
// (sched_legacy_test.go) are driven through identical scripted event
// sequences over real compiled plans (MR / MLR / ALS) and must produce
// byte-identical action logs — every Launch, StartReceiver,
// CancelReceiver, and Commit in order, including the input-location and
// receiver lists carried on the specs — and identical final manager
// state. The scripts cover the recovery surface: task failures,
// transient eviction with a replacement node, reserved failure with
// stage restarts, a pull failure, cache-aware placement, and
// round-robin multi-job rounds.
//
// The driver replaces the event loop: fake executors answer each master
// action with the deterministic follow-up events the production data
// plane would send (Launch → computed → committed or a terminal result;
// StartReceiver → ready; enough distinct commits → reserved-task done),
// so the whole exchange is a pure function of the script.

var errOracleTask = errors.New("oracle: scripted task failure")

type planMaker func(t *testing.T) *core.Plan

type oracleScript struct {
	plans []planMaker
	// cache enables the cache-aware placement path (Config.DisableCache
	// off) so cacheIndex hits steer picks on both sides.
	cache bool
	// failMod/failRem: a task's first attempt fails iff
	// (stage*31+frag*7+index) % failMod == failRem. Identity-based, so
	// the rule is launch-order independent. 0 disables.
	failMod, failRem int
	// evictAt drops the first transient node (with a replacement) when
	// the global launch counter hits this value. 0 disables.
	evictAt int
	// reservedFailAt drops the first reserved node (with a replacement)
	// when the global launch counter hits this value. 0 disables.
	reservedFailAt int
	// pullFail injects one evPullFailed for the first gen-1 commit of
	// fragment task (0,0) seen by receiver 0, as a receiver whose pull of
	// a skipped task's chunk failed reports it; the master un-commits and
	// relaunches the task the same way whatever the commit was.
	pullFail bool

	transients, reserveds, slots int
}

type recvID struct{ job, stage, gen, index int }
type doneKey struct{ job, stage, gen int }

// oracleRecv is the fake receiver's commit-counting state, mirroring
// the production receiver's distinct-(frag,index) processed set.
type oracleRecv struct {
	spec      recvSpec
	exec      string
	processed map[[2]int]bool
}

type oracleDriver struct {
	t     *testing.T
	sc    oracleScript
	jm    *JobManager
	sched func()

	queue   []event
	log     strings.Builder
	handles []*JobHandle
	byID    map[int]*JobHandle

	launches  int
	pullsLeft int
	recvs     map[recvID]*oracleRecv
	// pendingDones holds reserved-task-done events of zero-Expected
	// receivers (stages with no transient fragments finalize right after
	// their input fetch) until the stage's last ready lands, matching the
	// production timing where the fetch takes at least one network round
	// trip.
	pendingDones map[doneKey][]event

	firstTransient, firstReserved string
}

// evOracleDrop scripts a container departure: dropHost + the matching
// recovery path, then a replacement node joins.
type evOracleDrop struct {
	id          string
	kind        cluster.Kind
	replacement string
}

func (d *oracleDriver) logf(format string, args ...any) {
	fmt.Fprintf(&d.log, format+"\n", args...)
}

func fmtStrs(ss []string) string {
	if len(ss) == 0 {
		return "-"
	}
	return strings.Join(ss, ",")
}

func fmtLocs(locs map[int]stageLoc) string {
	if len(locs) == 0 {
		return "-"
	}
	ids := make([]int, 0, len(locs))
	for id := range locs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		l := locs[id]
		parts[i] = fmt.Sprintf("%d:g%d:[%s]", id, l.Gen, fmtStrs(l.Execs))
	}
	return strings.Join(parts, ";")
}

// oracleExec is the fake per-job launcher: it logs every master action
// and queues the deterministic follow-up events.
type oracleExec struct {
	d  *oracleDriver
	h  *JobHandle
	id string
}

func (x *oracleExec) Launch(spec taskSpec) {
	d, j := x.d, x.h.j
	d.logf("L j%d s%d g%d f%d i%d a%d @%s term=%v recv=%s locs=%s",
		j.id, spec.Stage, spec.Gen, spec.Frag, spec.Index, spec.Attempt, x.id,
		spec.Terminal, fmtStrs(spec.Receivers), fmtLocs(spec.InputLocs))
	d.launches++
	if d.sc.evictAt > 0 && d.launches == d.sc.evictAt {
		d.queue = append(d.queue, evOracleDrop{id: d.firstTransient, kind: cluster.Transient, replacement: "tx-repl"})
	}
	if d.sc.reservedFailAt > 0 && d.launches == d.sc.reservedFailAt {
		d.queue = append(d.queue, evOracleDrop{id: d.firstReserved, kind: cluster.Reserved, replacement: "rx-repl"})
	}
	ref := taskRef{Job: j.id, Stage: spec.Stage, Gen: spec.Gen, Frag: spec.Frag, Index: spec.Index, Attempt: spec.Attempt}
	if m := d.sc.failMod; m > 0 && spec.Attempt == 0 && (spec.Stage*31+spec.Frag*7+spec.Index)%m == d.sc.failRem {
		d.queue = append(d.queue, evTaskFailed{ref: ref, Exec: x.id, Err: errOracleTask})
		return
	}
	ps := j.plan.Stages[spec.Stage]
	var cached []recache.Key
	if !j.cfg.DisableCache {
		cached = taskCacheKeys(j.plan, ps, ps.Fragments[spec.Frag], spec.Index)
	}
	d.queue = append(d.queue, newTaskComputed(ref, x.id, cached))
	if spec.Terminal && spec.Frag == ps.RootFragment {
		d.queue = append(d.queue, evResult{Job: j.id, Stage: spec.Stage, Gen: spec.Gen,
			Index: spec.Index, Attempt: spec.Attempt, Payload: []byte{byte(spec.Index)}})
	} else {
		d.queue = append(d.queue, newOutputCommitted(j.id, spec.Stage, spec.Gen, spec.Frag,
			[]senderRef{{Index: spec.Index, Attempt: spec.Attempt}}))
	}
}

func (x *oracleExec) StartReceiver(spec recvSpec) {
	d, j := x.d, x.h.j
	d.logf("R j%d s%d g%d i%d @%s exp=%d locs=%s",
		j.id, spec.Stage, spec.Gen, spec.Index, x.id,
		spec.Expected, fmtLocs(spec.InputLocs))
	d.queue = append(d.queue, evReceiverReady{Job: j.id, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index})
	d.recvs[recvID{j.id, spec.Stage, spec.Gen, spec.Index}] = &oracleRecv{
		spec: spec, exec: x.id, processed: make(map[[2]int]bool),
	}
	if spec.Expected == 0 {
		dk := doneKey{j.id, spec.Stage, spec.Gen}
		d.pendingDones[dk] = append(d.pendingDones[dk], evReservedTaskDone{
			Job: j.id, Stage: spec.Stage, Gen: spec.Gen, Index: spec.Index, Exec: x.id, Bytes: 64,
		})
	}
}

func (x *oracleExec) CancelReceiver(stage, gen, idx int) {
	x.d.logf("C j%d s%d g%d i%d @%s", x.h.j.id, stage, gen, idx, x.id)
}

func (x *oracleExec) Commit(stage, gen, recvIdx int, c msgCommit) {
	d, j := x.d, x.h.j
	d.logf("M j%d s%d g%d r%d f%d i%d a%d",
		j.id, stage, gen, recvIdx, c.Frag, c.Index, c.Attempt)
	r := d.recvs[recvID{j.id, stage, gen, recvIdx}]
	if r == nil {
		return
	}
	if d.pullsLeft > 0 && gen == 1 && recvIdx == 0 && c.Frag == 0 && c.Index == 0 {
		// The receiver's pull of this committed output fails: drop the
		// commit (production deletes it from the committed set) and ask
		// the master to relaunch the task. The relaunched attempt's
		// commit lands below and is counted then.
		d.pullsLeft--
		d.queue = append(d.queue, evPullFailed{ref: taskRef{
			Job: j.id, Stage: stage, Gen: gen, Frag: c.Frag, Index: c.Index, Attempt: c.Attempt,
		}})
		return
	}
	sk := [2]int{c.Frag, c.Index}
	if r.processed[sk] {
		return
	}
	r.processed[sk] = true
	if len(r.processed) == r.spec.Expected {
		d.queue = append(d.queue, evReservedTaskDone{
			Job: j.id, Stage: stage, Gen: gen, Index: recvIdx, Exec: r.exec,
			Bytes: int64(64 + len(r.processed)),
		})
	}
}

func (d *oracleDriver) attach(id string) {
	for _, jid := range d.jm.order {
		d.jm.jobs[jid].execs[id] = &oracleExec{d: d, h: d.byID[jid], id: id}
	}
}

// deliver replicates the manager's handle() dispatch (minus gauge
// refresh) and then runs the scheduling pass under test.
func (d *oracleDriver) deliver(ev event) {
	jm := d.jm
	switch e := ev.(type) {
	case evSubmit:
		jm.admitOrQueue(e.j)
	case evReceiverReady:
		if j := jm.jobs[e.Job]; j != nil {
			jm.onReceiverReady(j, e)
			if s := jm.stageAt(j, e.Stage, e.Gen); s != nil && s.status == sRunning {
				dk := doneKey{e.Job, e.Stage, e.Gen}
				d.queue = append(d.queue, d.pendingDones[dk]...)
				delete(d.pendingDones, dk)
			}
		}
	case *evTaskComputed:
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
	case evOracleDrop:
		jm.dropHost(e.id)
		if e.kind == cluster.Reserved {
			jm.recoverFailed(e.id)
		} else {
			jm.recoverEvicted(e.id)
		}
		jm.registerNode(e.replacement, e.kind, d.sc.slots)
		d.attach(e.replacement)
	default:
		d.t.Fatalf("oracle: unhandled event %T", ev)
	}
	jm.reapFinished()
	d.sched()
}

// stateDigest renders the scheduling-relevant final state shared by both
// schedulers: cursors, slot tables, outstanding assignments, and every
// job's stage/task state machines.
func (d *oracleDriver) stateDigest() string {
	jm := d.jm
	var b strings.Builder
	fmt.Fprintf(&b, "rrTask=%d rrRecv=%d rrJob=%d\n", jm.rrTask, jm.rrRecv, jm.rrJob)
	ids := make([]string, 0, len(jm.slotsFree))
	for id := range jm.slotsFree {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "slot %s=%d\n", id, jm.slotsFree[id])
	}
	assigns := make([]string, 0, len(jm.assignments))
	for ref, exec := range jm.assignments {
		assigns = append(assigns, fmt.Sprintf("assign %+v=%s", ref, exec))
	}
	sort.Strings(assigns)
	for _, a := range assigns {
		b.WriteString(a + "\n")
	}
	for _, h := range d.handles {
		j := h.j
		fmt.Fprintf(&b, "job %d finished=%v aborted=%v\n",
			j.id, j.finished, j.failErr != nil)
		for si, s := range j.stages {
			fmt.Fprintf(&b, " stage %d status=%d gen=%d restarts=%d nReady=%d nDone=%d nResults=%d recv=%s out=%s\n",
				si, s.status, s.gen, s.restarts, s.nReady, s.nDone, s.nResults,
				fmtStrs(s.recvExecs), fmtStrs(s.outputExecs))
			for fi, fr := range s.frags {
				fmt.Fprintf(&b, "  frag %d committed=%d:", fi, fr.nCommitted)
				for _, tk := range fr.tasks {
					fmt.Fprintf(&b, " %d/%d/%d/%s", tk.state, tk.attempt, tk.fails, tk.exec)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// runOracle executes one script against a fresh manager and returns the
// action log and the final-state digest.
func runOracle(t *testing.T, sc oracleScript, legacy bool) (string, string) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Transient: sc.transients, Reserved: sc.reserveds})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	jm := newManager(cl, ManagerConfig{})
	d := &oracleDriver{
		t: t, sc: sc, jm: jm,
		byID:         make(map[int]*JobHandle),
		recvs:        make(map[recvID]*oracleRecv),
		pendingDones: make(map[doneKey][]event),
	}
	d.sched = jm.scheduleAll
	if legacy {
		d.sched = jm.legacyScheduleAll
	}
	if sc.pullFail {
		d.pullsLeft = 1
	}

	cfg := Config{DisableCache: !sc.cache}
	for _, mk := range sc.plans {
		h, err := jm.SubmitPlan(mk(t), cfg, JobOptions{})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		d.handles = append(d.handles, h)
		d.byID[h.id] = h
	}
	// Deliver the submissions with the fleet still empty: transient
	// stages may start but nothing launches, reserved stages wait.
	for drained := false; !drained; {
		select {
		case ev := <-jm.events:
			d.deliver(ev)
		default:
			drained = true
		}
	}
	// The fleet joins: reserved first, then transients, like
	// hostsInOrder. Replacements for scripted drops join later.
	for i := 0; i < sc.reserveds; i++ {
		id := fmt.Sprintf("r%02d", i)
		if i == 0 {
			d.firstReserved = id
		}
		jm.registerNode(id, cluster.Reserved, sc.slots)
		d.attach(id)
	}
	for i := 0; i < sc.transients; i++ {
		id := fmt.Sprintf("t%02d", i)
		if i == 0 {
			d.firstTransient = id
		}
		jm.registerNode(id, cluster.Transient, sc.slots)
		d.attach(id)
	}
	d.sched()

	for len(d.queue) > 0 {
		ev := d.queue[0]
		d.queue = d.queue[1:]
		d.deliver(ev)
	}

	for _, h := range d.handles {
		if !h.j.finished {
			t.Fatalf("oracle(legacy=%v): job %d did not finish; script deadlocked", legacy, h.id)
		}
		select {
		case <-h.j.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("oracle(legacy=%v): job %d did not resolve", legacy, h.id)
		}
	}
	return d.log.String(), d.stateDigest()
}

// requireSame fails with the first differing line of two multi-line
// strings, with a little context.
func requireSame(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges at line %d:\n  scan:   %q\n  legacy: %q",
				label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: lengths differ (%d vs %d lines); first extra line: %q",
		label, len(gl), len(wl), func() string {
			if len(gl) > len(wl) {
				return gl[n]
			}
			return wl[n]
		}())
}

func testOracle(t *testing.T, sc oracleScript) {
	t.Helper()
	log1, state1 := runOracle(t, sc, false)
	log2, state2 := runOracle(t, sc, false)
	requireSame(t, "scan rerun log", log2, log1)
	requireSame(t, "scan rerun state", state2, state1)
	legacyLog, legacyState := runOracle(t, sc, true)
	requireSame(t, "action log", log1, legacyLog)
	requireSame(t, "final state", state1, legacyState)
}

func mkMR(t *testing.T) *core.Plan {
	cfg := workloads.DefaultMRConfig()
	cfg.Partitions, cfg.LinesPerPart, cfg.Docs = 12, 10, 50
	return mustCompileOracle(t, workloads.MR(cfg))
}

func mkMLR(t *testing.T) *core.Plan {
	cfg := workloads.DefaultMLRConfig()
	cfg.Partitions, cfg.Iterations, cfg.TreeWidth = 8, 2, 2
	return mustCompileOracle(t, workloads.MLR(cfg))
}

func mkALS(t *testing.T) *core.Plan {
	cfg := workloads.DefaultALSConfig()
	cfg.Partitions, cfg.Iterations = 6, 2
	return mustCompileOracle(t, workloads.ALS(cfg))
}

func mustCompileOracle(t *testing.T, p *dataflow.Pipeline) *core.Plan {
	t.Helper()
	plan, err := core.Compile(p.Graph(), core.PlanConfig{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan
}

func TestSchedOracleMR(t *testing.T) {
	testOracle(t, oracleScript{
		plans:   []planMaker{mkMR},
		failMod: 5, failRem: 3,
		transients: 4, reserveds: 2, slots: 2,
	})
}

func TestSchedOracleMREvictionPull(t *testing.T) {
	testOracle(t, oracleScript{
		plans:   []planMaker{mkMR},
		failMod: 7, failRem: 2,
		evictAt:    10,
		pullFail:   true,
		transients: 4, reserveds: 2, slots: 2,
	})
}

func TestSchedOracleMLRCache(t *testing.T) {
	testOracle(t, oracleScript{
		plans:   []planMaker{mkMLR},
		cache:   true,
		failMod: 6, failRem: 1,
		transients: 4, reserveds: 2, slots: 2,
	})
}

func TestSchedOracleMultiJob(t *testing.T) {
	testOracle(t, oracleScript{
		plans:   []planMaker{mkMR, mkMLR, mkALS},
		failMod: 9, failRem: 4,
		evictAt:        40,
		reservedFailAt: 80,
		transients:     5, reserveds: 3, slots: 2,
	})
}
