package runtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/simnet"
	"pado/internal/storage"
	"pado/internal/testutil"
	"pado/internal/trace"
)

// Detector unit tests: the state machine must survive concurrent beats
// (collector goroutines) against event-loop ticks, and announced
// evictions racing detector suspicion must stay idempotent. Run with
// -race.

func testFailureConfig() FailureConfig {
	return FailureConfig{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   20 * time.Millisecond,
		DeadAfter:      50 * time.Millisecond,
	}
}

// TestFailureConfigValidate: detector timings whose resolved bounds are
// out of order are refused with both values named, and NewJobManager
// refuses them before anything starts. Defaults scale with the period.
func TestFailureConfigValidate(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		cfg  FailureConfig
		want string // "" = accepted
	}{
		{FailureConfig{}, ""},
		{FailureConfig{HeartbeatEvery: time.Second}, ""},
		{testFailureConfig(), ""},
		{FailureConfig{DeadAfter: 401 * ms}, ""},
		{FailureConfig{HeartbeatEvery: 100 * ms, DeadAfter: 50 * ms}, "DeadAfter 50ms must exceed SuspectAfter 400ms"},
		{FailureConfig{SuspectAfter: 100 * ms}, "SuspectAfter 100ms must exceed HeartbeatEvery 100ms"},
		{FailureConfig{HeartbeatEvery: 10 * ms, SuspectAfter: 5 * ms}, "SuspectAfter 5ms must exceed HeartbeatEvery 10ms"},
		{FailureConfig{SuspectAfter: 2 * time.Second}, "DeadAfter 1.5s must exceed SuspectAfter 2s"},
		{FailureConfig{SuspectAfter: 300 * ms, DeadAfter: 300 * ms}, "DeadAfter 300ms must exceed SuspectAfter 300ms"},
	} {
		err := tc.cfg.validate()
		if tc.want == "" && err != nil {
			t.Errorf("%+v: %v, want accepted", tc.cfg, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: err = %v, want %q", tc.cfg, err, tc.want)
		}
	}

	cl := newTestCluster(t, 1, 1, trace.RateNone)
	bad := FailureConfig{HeartbeatEvery: 100 * ms, DeadAfter: 50 * ms}
	if jm, err := NewJobManager(cl, ManagerConfig{Failure: bad}); err == nil {
		jm.Close()
		t.Fatal("NewJobManager accepted DeadAfter below SuspectAfter")
	}
	// Nothing was started: no container came up and the master node is
	// free for a manager with valid timings.
	if n := len(cl.Containers(cluster.Transient)) + len(cl.Containers(cluster.Reserved)); n != 0 {
		t.Errorf("%d containers up after a refused manager", n)
	}
	jm, err := NewJobManager(cl, ManagerConfig{})
	if err != nil {
		t.Fatalf("manager after a refused one: %v", err)
	}
	jm.Close()
}

// TestDetectorConcurrentBeats hammers beat() from many goroutines while
// tick/register/forget run — the real topology: collector conns beat,
// the event loop sweeps.
func TestDetectorConcurrentBeats(t *testing.T) {
	fd := newFailureDetector(testFailureConfig())
	start := time.Now()
	ids := []string{"t0", "t1", "t2", "r0"}
	for _, id := range ids {
		fd.register(id, start)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fd.beat(id, []string{"r0"}, time.Now())
			}
		}()
	}
	alive := func(string) bool { return true }
	for i := 0; i < 200; i++ {
		fd.tick(time.Now(), alive)
		if i == 50 {
			fd.forget("t2")
		}
		if i == 60 {
			fd.register("t2", time.Now())
		}
	}
	close(stop)
	wg.Wait()

	// Every node kept beating, so the final sweep must declare nothing.
	for _, tr := range fd.tick(time.Now(), alive) {
		if tr.Kind == fdDead {
			t.Errorf("node %s declared dead while beating", tr.ID)
		}
	}
}

// TestDetectorEvictionWhileSuspect pins the announced-eviction vs.
// detector race: a node goes suspect, then the cluster announces its
// eviction (dropHost → forget). Later ticks must stay silent about it,
// and a late beat from the departed node must not resurrect it.
func TestDetectorEvictionWhileSuspect(t *testing.T) {
	cfg := testFailureConfig()
	fd := newFailureDetector(cfg)
	now := time.Now()
	fd.register("t0", now)
	fd.register("t1", now)
	keepAlive := func(at time.Time) { fd.beat("t1", nil, at) }
	alive := func(string) bool { return true }

	// t0 falls silent past SuspectAfter: suspicion raised.
	at := now.Add(cfg.SuspectAfter + time.Millisecond)
	keepAlive(at)
	suspect := false
	for _, tr := range fd.tick(at, alive) {
		if tr.ID == "t0" && tr.Kind == fdSuspect {
			suspect = true
		}
	}
	if !suspect {
		t.Fatal("t0 not suspected after staleness bound")
	}

	// The eviction announcement wins the race: forget the node.
	fd.forget("t0")

	// A late heartbeat from the evicted node must be ignored, and no
	// tick may mention it again — not cleared, not dead.
	fd.beat("t0", nil, at.Add(time.Millisecond))
	at = at.Add(cfg.DeadAfter)
	keepAlive(at)
	for _, tr := range fd.tick(at, alive) {
		if tr.ID == "t0" {
			t.Errorf("forgotten node surfaced as %v transition", tr.Kind)
		}
	}
	if _, ok := fd.nodes["t0"]; ok {
		t.Error("late beat resurrected a forgotten node")
	}
}

// TestDetectorDeadThenLateBeat: once declared dead (and forgotten by the
// master), a late heartbeat frame from the walking corpse must not
// re-enter the detector.
func TestDetectorDeadThenLateBeat(t *testing.T) {
	cfg := testFailureConfig()
	fd := newFailureDetector(cfg)
	now := time.Now()
	fd.register("t0", now)
	alive := func(string) bool { return true }

	dead := false
	at := now.Add(cfg.DeadAfter + time.Millisecond)
	for _, tr := range fd.tick(at, alive) {
		if tr.ID == "t0" && tr.Kind == fdDead {
			dead = true
		}
	}
	if !dead {
		t.Fatal("t0 not declared dead after DeadAfter")
	}
	fd.forget("t0") // what onDeclaredDead does via dropHost

	fd.beat("t0", nil, at.Add(time.Millisecond))
	if _, ok := fd.nodes["t0"]; ok {
		t.Error("late beat resurrected a dead node")
	}
	for _, tr := range fd.tick(at.Add(2*cfg.DeadAfter), alive) {
		if tr.ID == "t0" {
			t.Errorf("dead node surfaced again as %v transition", tr.Kind)
		}
	}
}

// TestBreakerLifecycleConcurrent drives one destination through closed →
// open → half-open → closed at the shipped constants: a dropped link fails
// every attempt, the breaker opens on exactly the breakerThreshold-th
// consecutive failure, concurrent callers then fail fast with
// storage.ErrQuarantined, no probe is admitted before breakerCooldown, and
// once the link heals the first post-cooldown probe closes it again.
func TestBreakerLifecycleConcurrent(t *testing.T) {
	net := simnet.New(simnet.Config{})
	if _, err := net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	srv, err := net.AddNode("server")
	if err != nil {
		t.Fatal(err)
	}
	l, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewLocalStore()
	store.Put("b", []byte("payload"))
	go storage.ServeBlocks(l, store, nil, nil, nil)
	met := &metrics.Job{}
	dp := newDataPlane(net, "client", met, nil)
	defer dp.pool.Close()
	breaker := func() BreakerState {
		for _, b := range dp.inspect() {
			if b.Dest == "server" {
				return b
			}
		}
		return BreakerState{Dest: "server", State: "closed"}
	}

	remove := net.InjectFault(simnet.LinkFault{From: "client", To: "server", DropEvery: 1})

	// One caller at a time: each attempt through the dropped link is one
	// consecutive failure, and the breaker stays closed until the
	// threshold-th.
	for breaker().State == "closed" {
		if fails := breaker().Fails; fails >= breakerThreshold {
			t.Fatalf("breaker still closed after %d consecutive failures", fails)
		}
		if _, err := storage.FetchBlock(dp, "fetch", "server", "b"); err == nil {
			t.Fatal("fetch succeeded through a fully dropped link")
		}
	}
	opened := time.Now()
	if b := breaker(); b.State != "open" || b.Fails != breakerThreshold {
		t.Fatalf("breaker %s after %d failures, want open after exactly %d", b.State, b.Fails, breakerThreshold)
	}
	if n := met.Counter(metrics.NameBreakerOpens).Load(); n != 1 {
		t.Errorf("breaker_opens = %d, want 1", n)
	}
	if open := dp.openDests(); len(open) != 1 || open[0] != "server" {
		t.Fatalf("openDests = %v, want [server]", open)
	}

	var fastFails atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := storage.FetchBlock(dp, "fetch", "server", "b")
				if err == nil {
					t.Error("fetch succeeded through a fully dropped link")
					return
				}
				if errors.Is(err, storage.ErrQuarantined) {
					fastFails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fastFails.Load() == 0 {
		t.Error("breaker never failed traffic fast while open")
	}

	// Heal the link. No probe is admitted within the cooldown (a probe
	// the concurrent callers let through reopened it later, never
	// earlier); the first admission after it is the half-open probe,
	// and its success closes the breaker for everyone.
	remove()
	for !dp.admit("server") {
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(opened); waited < breakerCooldown {
		t.Errorf("half-open after %v, want at least the %v cooldown", waited, breakerCooldown)
	}
	if b := breaker(); b.State != "half-open" {
		t.Fatalf("breaker %s after the cooldown, want half-open", b.State)
	}
	if _, err := storage.FetchBlock(dp, "fetch", "server", "b"); err != nil {
		t.Fatalf("probe through the healed link: %v", err)
	}
	if b := breaker(); b.State != "closed" || b.Fails != 0 {
		t.Errorf("breaker %s with %d fails after a successful probe, want closed and 0", b.State, b.Fails)
	}
	if open := dp.openDests(); len(open) != 0 {
		t.Errorf("openDests = %v after recovery, want none", open)
	}
}

// TestHungNodeLateFramesNotDoubleCommitted is the late-progress-frame
// regression: a node wedges mid-push, the detector declares it dead and
// relaunches its tasks, and THEN the node un-wedges — its blocked push
// and result frames finally flow. The master must reject them: the job
// output stays exact and every (epoch, frag, task) commits once.
func TestHungNodeLateFramesNotDoubleCommitted(t *testing.T) {
	testutil.Watchdog(t, 45*time.Second)
	pipe, expect := buildWordCount(8, 300)
	cl := newTestCluster(t, 6, 2, trace.RateNone)
	tracer := obs.New()

	plan := &chaos.Plan{Name: "hang-then-wake", Rules: []chaos.Rule{{
		Trigger: func() chaos.Trigger {
			tr := chaos.On("push_started")
			tr.Count = 1
			return tr
		}(),
		// Window un-wedges the node well after DeadAfter: the declaration
		// lands first, the stale frames second.
		Fault: chaos.Fault{Op: chaos.OpHang, Target: "@event", Stage: chaos.Any,
			Window: chaos.Duration(400 * time.Millisecond)},
	}}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := chaos.NewEngine(plan, cl)
	eng.Attach(tracer)
	defer eng.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, pipe.Graph(), Config{
		Tracer: tracer,
		Chaos:  eng,
		Failure: FailureConfig{
			HeartbeatEvery: 10 * time.Millisecond,
			SuspectAfter:   40 * time.Millisecond,
			DeadAfter:      150 * time.Millisecond,
		},
		MaxTaskFailures: 1000,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("job hung after node wedge")
	}
	eng.Stop()
	if len(eng.Injections()) == 0 {
		t.Fatal("hang fault never fired")
	}
	checkWordCount(t, res, expect)

	parents := make(map[int][]int, len(res.Plan.Stages))
	for _, ps := range res.Plan.Stages {
		parents[ps.ID] = ps.Parents
	}
	events := tracer.Events()
	rep := chaos.Check(events, parents)
	rep.Violations = append(rep.Violations, chaos.CheckDetection(events, 5*time.Second)...)
	if !rep.OK() {
		t.Errorf("invariants: %s", rep)
	}
	declared := false
	for _, ev := range events {
		if ev.Kind == obs.NodeDeclaredDead {
			declared = true
		}
	}
	if !declared {
		t.Error("hung node never declared dead")
	}
}
