package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pado/internal/cluster"
	"pado/internal/obs"
	"pado/internal/simnet"
)

// Engine evaluates a Plan against a live run. It taps the run's obs
// tracer to watch events, matches triggers on the emitting goroutines
// (cheaply, under one mutex), and applies faults from a dedicated
// injector goroutine so that a fault's side effects (eviction callbacks,
// replacement allocations) never run on the event-emitting path.
//
// Engine implements the runtime's ChaosHook interface for control-plane
// faults, so it can be handed to runtime.Config.Chaos directly.
type Engine struct {
	plan *Plan
	cl   *cluster.Cluster
	tr   *obs.Buf
	sub  *obs.Subscriber // the engine's synchronous tap on the run's tracer

	mu       sync.Mutex
	rules    []*ruleState
	byID     map[string]*ruleState
	launched map[[2]int]map[[2]int]bool // (job, stage) -> launched (frag, task) set
	commits  []*commitFault
	log      []Injection
	removals []func()
	stopped  bool

	actions chan action
	stop    chan struct{}
	done    chan struct{}
}

type ruleState struct {
	rule    *Rule
	kind    obs.Kind
	armed   bool
	fired   bool
	matches int
	matched map[[3]int]bool // distinct (job, frag, task) matches, for Fraction
}

// action is one fault ready to apply, with the triggering event's
// executor for "@event" targeting.
type action struct {
	rule *Rule
	exec string
}

// commitFault is an installed control-plane perturbation consulted on
// every commit relay.
type commitFault struct {
	rule      *Rule
	remaining int // relays left to perturb; -1 = unlimited
}

// Injection records one applied fault for reports.
type Injection struct {
	Rule   string
	Op     string
	Target string
	Detail string
}

// String renders one injection.
func (i Injection) String() string {
	s := i.Rule + ": " + i.Op
	if i.Target != "" {
		s += " " + i.Target
	}
	if i.Detail != "" {
		s += " (" + i.Detail + ")"
	}
	return s
}

// NewEngine builds an engine for one run on cl. Call Attach with the
// run's tracer before starting the job, and Stop after it ends.
func NewEngine(plan *Plan, cl *cluster.Cluster) *Engine {
	e := &Engine{
		plan:     plan,
		cl:       cl,
		byID:     make(map[string]*ruleState),
		launched: make(map[[2]int]map[[2]int]bool),
		actions:  make(chan action, 64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range plan.Rules {
		r := &plan.Rules[i]
		rs := &ruleState{rule: r, matched: make(map[[3]int]bool)}
		if r.Trigger.On != "" {
			rs.kind, _ = obs.ParseKind(r.Trigger.On)
		}
		e.rules = append(e.rules, rs)
		e.byID[r.ID] = rs
	}
	return e
}

// Attach hooks the engine into tr's live event stream and starts the
// injector. Rules without an After dependency arm immediately; those
// with an empty On fire at once.
func (e *Engine) Attach(tr *obs.Tracer) {
	e.tr = tr.Buf(nil, 0)
	go e.runInjector()
	e.mu.Lock()
	var fire []action
	for _, rs := range e.rules {
		if rs.rule.Trigger.After == "" {
			e.arm(rs, "", &fire)
		}
	}
	e.mu.Unlock()
	e.dispatch(fire)
	e.sub = tr.SubscribeSync(e.tap)
}

// Stop detaches the tap, stops the injector, and removes any still
// installed network faults. Idempotent in effect; call once.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	removals := e.removals
	e.removals = nil
	e.mu.Unlock()

	e.sub.Close()
	close(e.stop)
	<-e.done
	for _, rm := range removals {
		rm()
	}
}

// Injections returns the applied-fault log in application order.
func (e *Engine) Injections() []Injection {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Injection(nil), e.log...)
}

// arm marks rs armed; empty-On rules fire immediately. Callers hold e.mu
// and dispatch the returned actions after unlocking.
func (e *Engine) arm(rs *ruleState, exec string, fire *[]action) {
	if rs.armed || rs.fired {
		return
	}
	rs.armed = true
	if rs.rule.Trigger.On == "" {
		e.fire(rs, exec, fire)
	}
}

// fire marks rs fired, arms its dependents, and queues its fault.
// Callers hold e.mu.
func (e *Engine) fire(rs *ruleState, exec string, fire *[]action) {
	if rs.fired {
		return
	}
	rs.fired = true
	*fire = append(*fire, action{rule: rs.rule, exec: exec})
	for _, dep := range e.rules {
		if dep.rule.Trigger.After == rs.rule.ID {
			e.arm(dep, exec, fire)
		}
	}
}

// dispatch hands fired rules to the injector, honoring per-rule delays.
func (e *Engine) dispatch(fire []action) {
	for _, act := range fire {
		if d := act.rule.Trigger.Delay.D(); d > 0 {
			act := act
			time.AfterFunc(d, func() { e.enqueue(act) })
			continue
		}
		e.enqueue(act)
	}
}

func (e *Engine) enqueue(act action) {
	select {
	case e.actions <- act:
	case <-e.stop:
	}
}

// tap observes every emitted event. It runs on the emitting goroutine
// (the master loop, executors), so it only updates trigger state and
// queues work; faults are applied by the injector goroutine.
func (e *Engine) tap(ev obs.Event) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if ev.Kind == obs.TaskLaunched && ev.Frag >= 0 {
		key := [2]int{ev.Job, ev.Stage}
		set := e.launched[key]
		if set == nil {
			set = make(map[[2]int]bool)
			e.launched[key] = set
		}
		set[[2]int{ev.Frag, ev.Task}] = true
	}
	var fire []action
	for _, rs := range e.rules {
		if !rs.armed || rs.fired || rs.rule.Trigger.On == "" || rs.kind != ev.Kind {
			continue
		}
		t := &rs.rule.Trigger
		if !jobMatches(t.Job, ev.Job) {
			continue
		}
		if t.Stage != Any && t.Stage != ev.Stage {
			continue
		}
		if t.Frag != Any && t.Frag != ev.Frag {
			continue
		}
		if t.Task != Any && t.Task != ev.Task {
			continue
		}
		if t.ExecPrefix != "" && !strings.HasPrefix(ev.Exec, t.ExecPrefix) {
			continue
		}
		if t.NoteContains != "" && !strings.Contains(ev.Note, t.NoteContains) {
			continue
		}
		rs.matches++
		if t.Fraction > 0 {
			rs.matched[[3]int{ev.Job, ev.Frag, ev.Task}] = true
			// The denominator is the matched event's own job, so a
			// wildcard-job fraction trigger still measures progress
			// within one job's stage rather than across the fleet.
			total := len(e.launched[[2]int{ev.Job, t.Stage}])
			if total == 0 || float64(len(rs.matched)) < t.Fraction*float64(total) {
				continue
			}
		} else {
			count := t.Count
			if count <= 0 {
				count = 1
			}
			if rs.matches < count {
				continue
			}
		}
		e.fire(rs, ev.Exec, &fire)
	}
	e.mu.Unlock()
	e.dispatch(fire)
}

func (e *Engine) runInjector() {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case act := <-e.actions:
			e.apply(act)
		}
	}
}

// apply executes one fault on the injector goroutine.
func (e *Engine) apply(act action) {
	f := &act.rule.Fault
	switch f.Op {
	case OpEvict:
		id := e.pickTarget(f.Target, act.exec, cluster.Transient)
		if id == "" {
			e.record(act.rule, "", "no live transient container")
			return
		}
		err := e.cl.EvictNow(id)
		e.record(act.rule, id, errDetail(err))
	case OpStorm:
		n := f.Count
		if n <= 0 {
			n = 2
		}
		ids := e.liveIDs(cluster.Transient)
		if len(ids) > n {
			ids = ids[:n]
		}
		for _, id := range ids {
			e.cl.EvictNow(id)
		}
		e.record(act.rule, strings.Join(ids, ","), fmt.Sprintf("%d evicted", len(ids)))
	case OpFailReserved:
		id := e.pickTarget(f.Target, act.exec, cluster.Reserved)
		if id == "" {
			e.record(act.rule, "", "no live reserved container")
			return
		}
		err := e.cl.FailReserved(id, !f.NoReplace)
		e.record(act.rule, id, errDetail(err))
	case OpLink, OpDialFail:
		lf := simnet.LinkFault{From: f.From, To: f.To}
		if f.Op == OpDialFail {
			lf.FailDial = true
		} else {
			lf.ExtraLatency = f.ExtraLatency.D()
			lf.DropEvery = f.DropEvery
		}
		remove := e.cl.Net().InjectFault(lf)
		if w := f.Window.D(); w > 0 {
			time.AfterFunc(w, remove)
		} else {
			e.mu.Lock()
			e.removals = append(e.removals, remove)
			e.mu.Unlock()
		}
		e.record(act.rule, f.From+"->"+f.To, linkDetail(f))
	case OpKillSilent:
		id := e.pickTarget(f.Target, act.exec, cluster.Transient)
		if id == "" {
			e.record(act.rule, "", "no live transient container")
			return
		}
		err := e.cl.KillSilently(id, !f.NoReplace)
		e.record(act.rule, id, errDetail(err))
	case OpHang:
		id := e.pickTarget(f.Target, act.exec, cluster.Transient)
		if id == "" {
			e.record(act.rule, "", "no live transient container")
			return
		}
		if !e.cl.Net().SetWedged(id, true) {
			e.record(act.rule, id, "no such node")
			return
		}
		if w := f.Window.D(); w > 0 {
			time.AfterFunc(w, func() { e.cl.Net().SetWedged(id, false) })
		}
		e.record(act.rule, id, fmt.Sprintf("wedged window=%v", f.Window.D()))
	case OpGray:
		id := e.pickTarget(f.Target, act.exec, cluster.Transient)
		if id == "" {
			e.record(act.rule, "", "no live transient container")
			return
		}
		// Break the node's data plane both ways but spare its master
		// links: it keeps heartbeating while refusing data.
		rmOut := e.cl.Net().InjectFault(simnet.LinkFault{
			From: id, ExceptTo: "master", DropEvery: 1, FailDial: true})
		rmIn := e.cl.Net().InjectFault(simnet.LinkFault{
			To: id, ExceptFrom: "master", DropEvery: 1, FailDial: true})
		e.retire(f.Window.D(), rmOut, rmIn)
		e.record(act.rule, id, fmt.Sprintf("gray window=%v", f.Window.D()))
	case OpPartition:
		remove := e.cl.Net().InjectFault(simnet.LinkFault{
			From: f.From, To: f.To, DropEvery: 1, FailDial: true})
		e.retire(f.Window.D(), remove)
		e.record(act.rule, f.From+"->"+f.To, fmt.Sprintf("partition window=%v", f.Window.D()))
	case OpCommitDelay, OpCommitDup:
		cf := &commitFault{rule: act.rule, remaining: -1}
		if f.Commits > 0 {
			cf.remaining = f.Commits
		}
		e.mu.Lock()
		e.commits = append(e.commits, cf)
		e.mu.Unlock()
		e.record(act.rule, "", commitDetail(f))
	}
}

// retire schedules fault removals: after window when positive, else at
// engine Stop.
func (e *Engine) retire(window time.Duration, removes ...func()) {
	if window > 0 {
		time.AfterFunc(window, func() {
			for _, rm := range removes {
				rm()
			}
		})
		return
	}
	e.mu.Lock()
	e.removals = append(e.removals, removes...)
	e.mu.Unlock()
}

// record logs an applied fault and emits it as a first-class obs event,
// so traces and timelines show when the injection landed.
func (e *Engine) record(rule *Rule, target, detail string) {
	inj := Injection{Rule: rule.ID, Op: rule.Fault.Op, Target: target, Detail: detail}
	e.mu.Lock()
	e.log = append(e.log, inj)
	e.mu.Unlock()
	note := rule.ID + " " + rule.Fault.Op
	if detail != "" {
		note += " " + detail
	}
	e.tr.Emit(obs.Event{Kind: obs.ChaosInjected, Stage: Any, Frag: Any, Task: Any,
		Exec: target, Note: note})
}

// pickTarget resolves a fault's container: explicit id, the triggering
// event's executor ("@event"), or the lowest-numbered live container of
// the wanted kind.
func (e *Engine) pickTarget(target, exec string, kind cluster.Kind) string {
	switch {
	case target == "@event":
		return exec
	case target != "":
		return target
	}
	ids := e.liveIDs(kind)
	if len(ids) == 0 {
		return ""
	}
	return ids[0]
}

// liveIDs lists live containers of one kind in deterministic (numeric)
// order — cluster.Containers snapshots a map.
func (e *Engine) liveIDs(kind cluster.Kind) []string {
	cs := e.cl.Containers(kind)
	ids := make([]string, 0, len(cs))
	for _, c := range cs {
		ids = append(ids, c.ID)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j]) // "t2" before "t10"
		}
		return ids[i] < ids[j]
	})
	return ids
}

// CommitRelay implements the runtime's ChaosHook: installed commit
// faults delay and/or duplicate the manager's commit relays, optionally
// scoped to one job's protocol.
func (e *Engine) CommitRelay(job, stage, frag, task, attempt, recvIdx int) (time.Duration, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var delay time.Duration
	dups := 0
	for _, cf := range e.commits {
		f := &cf.rule.Fault
		if !jobMatches(f.Job, job) {
			continue
		}
		if f.Stage != Any && f.Stage != stage {
			continue
		}
		if cf.remaining == 0 {
			continue
		}
		if cf.remaining > 0 {
			cf.remaining--
		}
		switch f.Op {
		case OpCommitDelay:
			delay += f.Delay.D()
		case OpCommitDup:
			n := f.Count
			if n <= 0 {
				n = 1
			}
			dups += n
		}
	}
	return delay, dups
}

func errDetail(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

func linkDetail(f *Fault) string {
	if f.Op == OpDialFail {
		return fmt.Sprintf("dials fail, window=%v", f.Window.D())
	}
	return fmt.Sprintf("latency+%v drop=1/%d window=%v", f.ExtraLatency.D(), f.DropEvery, f.Window.D())
}

func commitDetail(f *Fault) string {
	if f.Op == OpCommitDelay {
		return fmt.Sprintf("stage=%d delay=%v", f.Stage, f.Delay.D())
	}
	n := f.Count
	if n <= 0 {
		n = 1
	}
	return fmt.Sprintf("stage=%d dups=%d", f.Stage, n)
}
