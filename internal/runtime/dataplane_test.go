package runtime

import (
	"context"
	"io"
	"strings"
	"sync"
	"sync/atomic"
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

// TestMidFanoutPushFailure breaks one receiver's link partway through
// pushFrames' per-receiver fan-out: frames to the other reserved nodes land, the frame to the
// broken node fails, and the task must fail WITHOUT committing. The
// relaunched attempt re-pushes every frame; receivers that already staged
// the earlier attempt's frames must discard them (superseded by the newer
// attempt / covered senders already processed), so the final counts are
// exact despite the duplicates.
func TestMidFanoutPushFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// cover is the least number of tasks one failed frame set must
		// have taken down together.
		cover int
	}{
		// Raw sections, one task per frame set.
		{"raw", Config{DisablePartialAggregation: true}, 1},
		// Aggregated sections, flushed by the buffer's timer.
		{"aggregated", Config{}, 1},
		// Two tasks per node and a flush at two: every frame set covers
		// two tasks, and a failed fan-out must fail both.
		{"aggregated-cover", Config{AggMaxTasks: 2}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, expect := buildWordCount(8, 300)
			cl := newTestCluster(t, 4, 3, trace.RateNone)

			// Fail every chunk from any transient executor into r1. Pushes
			// to r2/r3 receivers succeed, so a multi-receiver fan-out fails
			// after delivering some of its frames. The fault lifts as soon
			// as relaunches are observed on the event stream — the minimal
			// window that still guarantees a mid-fan-out failure happened,
			// without racing the master's relaunch-attempt budget.
			remove := cl.Net().InjectFault(simnet.LinkFault{From: "t", To: "r1", DropEvery: 1})
			tr := obs.New()
			var relaunches atomic.Int64
			defer tr.SubscribeSync(func(ev obs.Event) {
				if ev.Kind == obs.TaskRelaunched && relaunches.Add(1) >= 2 {
					remove()
				}
			}).Close()
			tc.cfg.Tracer = tr

			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			res, err := Run(ctx, cl, p.Graph(), tc.cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Metrics.TimedOut {
				t.Fatal("timed out")
			}
			if res.Metrics.RelaunchedTasks == 0 {
				t.Error("fault produced no relaunches; fan-out failure path not exercised")
			}
			// A failed frame set fails every covered task with the same
			// error from the same executor.
			together := make(map[string]map[int]bool)
			most := 0
			for _, ev := range tr.Events() {
				if ev.Kind != obs.TaskFailed || ev.Attempt != 0 {
					continue
				}
				k := ev.Exec + " " + ev.Note
				if together[k] == nil {
					together[k] = make(map[int]bool)
				}
				together[k][ev.Task] = true
				most = max(most, len(together[k]))
			}
			if most < tc.cover {
				t.Errorf("a failed push took down at most %d task(s) together, want the cover of %d", most, tc.cover)
			}
			checkWordCount(t, res, expect)
		})
	}
}

// TestRefusalCostsNoRetry: a peer's "no" is an answer, whichever op it
// answers. A manifest with a dangling chunk, committed through a data plane
// with the RPC policy on, reaches the service exactly once: the stream
// stays pooled (no redial, the next op reuses it), no retry budget or
// backoff is spent, and the destination's breaker records nothing.
func TestRefusalCostsNoRetry(t *testing.T) {
	net := simnet.New(simnet.Config{})
	node, err := net.AddNode("cas0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	svc := storage.NewCommitService(storage.NewCommitStore(), []*simnet.Node{node})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	met := &metrics.Job{}
	dp := newDataPlane(net, "client", met, FailureConfig{}, nil)
	defer dp.pool.Close()
	cas := storage.NewCommitClient(dp, svc.NodeIDs())
	attempts := func() int64 {
		return met.Counter(metrics.NameConnDials).Load() + met.Counter(metrics.NameConnReuses).Load()
	}

	stored, err := cas.PutChunk([]byte("stored")) // dials the one stream
	if err != nil {
		t.Fatal(err)
	}
	before := attempts()
	err = cas.Commit(&storage.Manifest{Key: "x", Parts: [][]string{{stored, storage.HashChunk([]byte("ghost"))}}})
	if err == nil || !storage.IsReply(err) || isFatal(err) {
		t.Fatalf("dangling commit: err = %v, want a non-fatal peer reply", err)
	}
	if got := attempts() - before; got != 1 {
		t.Errorf("the refused commit reached the service %d times, want once", got)
	}
	if m, err := cas.Resolve("x", false); err != nil || m != nil {
		t.Fatalf("resolve after the refusal = %v, %v; want a clean miss", m, err)
	}
	if d, r := met.Counter(metrics.NameConnDials).Load(), met.Counter(metrics.NameConnReuses).Load(); d != 1 || r != 2 {
		t.Errorf("conn_dials = %d, conn_reuses = %d; want 1 and 2 (refusal and miss both keep the stream)", d, r)
	}
	if n := met.Counter(metrics.NameRPCRetries).Load(); n != 0 {
		t.Errorf("rpc_retries = %d, want 0", n)
	}
	for _, b := range dp.pol.inspect() {
		if b.Fails != 0 || b.State != "closed" {
			t.Errorf("breaker toward %s: %d fails, %s; a refusal is not a failure", b.Dest, b.Fails, b.State)
		}
	}
}

func TestAttributeBytes(t *testing.T) {
	for _, tc := range []struct {
		total int64
		n     int
	}{
		{0, 1}, {1, 1}, {10, 3}, {9, 3}, {7, 8}, {1 << 40, 7}, {99, 100},
	} {
		shares := attributeBytes(tc.total, tc.n)
		if len(shares) != tc.n {
			t.Fatalf("attributeBytes(%d, %d): %d shares", tc.total, tc.n, len(shares))
		}
		var sum int64
		for i, s := range shares {
			sum += s
			if i > 0 && (s < shares[tc.n-1]-1 || s > shares[0]) {
				t.Errorf("attributeBytes(%d, %d): uneven share %d at %d", tc.total, tc.n, s, i)
			}
		}
		if sum != tc.total {
			t.Errorf("attributeBytes(%d, %d) sums to %d", tc.total, tc.n, sum)
		}
	}
}

// misroute is a launcher that sends the first task it launches to push
// its first boundary frame at `to` instead of the real receiver.
type misroute struct {
	taskLauncher
	once *sync.Once
	to   string
}

func (m misroute) Launch(spec taskSpec) {
	m.once.Do(func() {
		spec.Receivers = append([]string(nil), spec.Receivers...)
		spec.Receivers[0] = m.to
	})
	m.taskLauncher.Launch(spec)
}

// TestPushEOFRelaunchesTask is the regression for "task … failed: EOF":
// a peer that reads a push and closes the stream without answering makes
// the sender read io.EOF. That is a transport failure — the task is
// relaunched and the job completes — not a job bug that aborts the run.
// Everything is real (cluster, hosts, executors, master logic); the test
// only plays the manager's event loop so it can reroute one push to the
// closing peer without racing the loop.
func TestPushEOFRelaunchesTask(t *testing.T) {
	p, expect := buildWordCount(8, 300)
	cl := newTestCluster(t, 4, 2, trace.RateNone)

	closer, err := cl.Net().AddNode("closer")
	if err != nil {
		t.Fatal(err)
	}
	l, err := closer.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var dropped atomic.Int64
	go storage.Serve(l, nil, func(_ byte, _ *data.Encoder, d *data.Decoder) error {
		if _, err := readPushFrame(d); err != nil {
			return err
		}
		dropped.Add(1)
		return io.EOF // closes the stream under the sender
	})

	tr := obs.New()
	jm := newManager(cl, ManagerConfig{Tracer: tr, Failure: FailureConfig{DisableDetector: true}})
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
	h, err := jm.Submit(p.Graph(), Config{DisablePartialAggregation: true}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var res *Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = h.Wait(ctx)
	}()
	var once sync.Once
loop:
	for {
		select {
		case <-done:
			break loop
		case ev := <-jm.events:
			jm.handle(ev)
			for id, ex := range h.j.execs {
				if _, wrapped := ex.(misroute); !wrapped && jm.kinds[id] == cluster.Transient {
					h.j.execs[id] = misroute{taskLauncher: ex, once: &once, to: "closer"}
				}
			}
		}
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	if dropped.Load() == 0 {
		t.Fatal("no push reached the closing peer; the EOF path was not exercised")
	}
	sawEOF := false
	for _, ev := range tr.Events() {
		if ev.Kind == obs.TaskFailed && strings.Contains(ev.Note, "EOF") {
			sawEOF = true
		}
	}
	if !sawEOF {
		t.Error("no task failed with EOF")
	}
	if res.Metrics.RelaunchedTasks == 0 {
		t.Error("the task hit by EOF was not relaunched")
	}
	checkWordCount(t, res, expect)
}
