//go:build goexperiment.synctest

package harness

import (
	"context"
	goruntime "runtime"
	"sync"
	"testing"
	"testing/synctest"

	"pado/internal/cluster"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/trace"
)

// stageNIC is what the reserved NICs carried while one stage ran, from
// its stage_scheduled to its stage_complete: per reserved container, the
// bytes received and sent.
type stageNIC struct {
	stage      int
	recv, sent map[string]int64
}

// runStageNICs runs p's Pado cell like Run, reading every reserved node's
// simnet counters at each stage_scheduled and stage_complete.
func runStageNICs(p Params) (Outcome, []stageNIC, error) {
	p = p.withDefaults()
	p.ForceTrace = true
	c, err := p.start()
	if err != nil {
		return Outcome{}, nil, err
	}
	defer c.stop()
	type counters struct{ recv, sent map[string]int64 }
	read := func() counters {
		cs := counters{map[string]int64{}, map[string]int64{}}
		for _, ct := range c.cl.Containers(cluster.Reserved) {
			cs.recv[ct.ID], cs.sent[ct.ID] = ct.Node.BytesRecv(), ct.Node.BytesSent()
		}
		return cs
	}
	var mu sync.Mutex
	open := map[int]counters{}
	var stages []stageNIC
	sub := c.tracer.SubscribeSync(func(ev obs.Event) {
		switch ev.Kind {
		case obs.StageScheduled, obs.StageComplete:
		default:
			return
		}
		now := read()
		mu.Lock()
		defer mu.Unlock()
		if ev.Kind == obs.StageScheduled {
			open[ev.Stage] = now
			return
		}
		start, ok := open[ev.Stage]
		if !ok {
			return
		}
		s := stageNIC{stage: ev.Stage, recv: map[string]int64{}, sent: map[string]int64{}}
		for id := range now.recv {
			s.recv[id] = now.recv[id] - start.recv[id]
			s.sent[id] = now.sent[id] - start.sent[id]
		}
		stages = append(stages, s)
	})
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), p.Scale.Wall(p.TimeoutMinutes))
	defer cancel()
	f, _, err := c.runPado(ctx, p, runtime.JobOptions{Metrics: c.met})
	if err != nil {
		return Outcome{}, nil, err
	}
	c.stop()
	out, err := c.outcome(p, f, 0, "")
	mu.Lock()
	defer mu.Unlock()
	return out, stages, err
}

// spread returns the most any one node carried and the sum over nodes.
func spread(bytes map[string]int64) (most, total int64) {
	for _, b := range bytes {
		most = max(most, b)
		total += b
	}
	return most, total
}

// TestBubbleReservedNICSpread pins where an MLR iteration's bytes go on the
// default cell (40T+5R, size 1) without evictions. Each transient executor
// pushes its gradient cover to, and reads the model from, its home
// reserved container, so while any stage runs the most-loaded reserved NIC
// carries, each way, at most an even share of that stage's reserved bytes
// plus one root fold: the R-1 shard sections the root merges. One reserved
// NIC taking every cover and serving every model read, as Algorithm 1's
// placement alone does, reads 40 covers against an even share of 9 and
// fails. The JCT must beat 4.87 paper-min, what doubling every reserved
// NIC gave that placement, and ALS, where neither half engages, must be
// no slower than before (13.2529 paper-min on each seed).
func TestBubbleReservedNICSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("three default-cell runs per workload")
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	// One 16 KiB gradient section of the default MLR (8 classes × 256
	// features), with room for its frame.
	const section = 8*256*8 + 1024
	for seed := int64(1); seed <= 3; seed++ {
		p := Params{Engine: EnginePado, Workload: WorkloadMLR, Rate: trace.RateNone, Seed: seed}
		var out Outcome
		var stages []stageNIC
		var err error
		synctest.Run(func() { out, stages, err = runStageNICs(p) })
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.TimedOut {
			t.Fatalf("seed %d: MLR timed out", seed)
		}
		r := int64(p.withDefaults().Reserved)
		fold := (r - 1) * section
		for _, s := range stages {
			for _, dir := range []struct {
				name  string
				bytes map[string]int64
			}{{"ingress", s.recv}, {"egress", s.sent}} {
				most, total := spread(dir.bytes)
				if even := (total + r - 1) / r; most > even+fold {
					t.Errorf("seed %d stage %d: most-loaded reserved %s %d B, want at most an even share %d B + one root fold %d B",
						seed, s.stage, dir.name, most, even, fold)
				}
			}
		}
		t.Logf("seed %d: MLR %.2f paper-min over %d stages, pushed %d B, fetched %d B",
			seed, out.JCTMinutes, len(stages), out.Metrics.BytesPushed, out.Metrics.BytesFetched)
		if out.JCTMinutes > 4.87 {
			t.Errorf("seed %d: MLR at none took %.2f paper-min, want at most 4.87", seed, out.JCTMinutes)
		}

		p.Workload = WorkloadALS
		synctest.Run(func() { out, err = Run(p) })
		if err != nil {
			t.Fatalf("seed %d: ALS: %v", seed, err)
		}
		t.Logf("seed %d: ALS %.4f paper-min", seed, out.JCTMinutes)
		if out.TimedOut || out.JCTMinutes > 13.253 {
			t.Errorf("seed %d: ALS at none took %.2f paper-min, want at most 13.253", seed, out.JCTMinutes)
		}
	}
}
