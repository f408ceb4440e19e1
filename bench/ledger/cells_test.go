package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/harness"
	"pado/internal/storage"
	"pado/internal/trace"
)

// The calibration in cells.go is a copy of the harness's. At one seed both
// must launch the same tasks and push the same bytes, so the copy cannot
// drift unnoticed. The comparison runs on mr_prime's cell, which is mr_none's
// plus a commit store: with partial aggregation on, the pushed bytes of
// mr_none depend on which task outputs happened to be folded together and
// differ between two runs of the harness itself. The harness fixes the data
// seed at the workload default, so the inputs are built from that seed here.
func TestCellMatchesHarness(t *testing.T) {
	const seed, harnessDataSeed = 4242, 11
	w := workloadByName("mr_prime")
	want, err := harness.Run(harness.Params{
		Engine: harness.EnginePado, Workload: harness.WorkloadMR, Rate: trace.RateNone, Seed: seed,
		CommitStore: storage.NewCommitStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := buildInputs(w, harnessDataSeed)
	cl, err := cluster.New(paperCell.clusterConfig(w.rate, seed))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), paperCell.scale.Wall(paperCell.timeoutMin))
	defer cancel()
	got, err := paperCell.runJob(ctx, w, cl, in.graph(0), nil, storage.NewCommitStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.verify(0, got.outputs); err != nil {
		t.Fatal(err)
	}
	if got.snap.OriginalTasks != want.Metrics.OriginalTasks {
		t.Errorf("OriginalTasks: ledger cell %d, harness %d", got.snap.OriginalTasks, want.Metrics.OriginalTasks)
	}
	if got.snap.BytesPushed != want.Metrics.BytesPushed {
		t.Errorf("BytesPushed: ledger cell %d, harness %d", got.snap.BytesPushed, want.Metrics.BytesPushed)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "nested", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 2, Name: "leaf", StartNS: 15, EndNS: 25},
		{ID: 4, Parent: 1, Name: "overlaps-2", StartNS: 30, EndNS: 60},
		{ID: 5, Parent: 1, Name: "sticks-out", StartNS: 90, EndNS: 120},
	}
	fillSelfTimes(spans)
	// rep: children cover [10,60] and [90,100] of [0,100]; [0,10] and
	// [60,90] are uncovered.
	want := map[int]int64{1: 40, 2: 20, 3: 10, 4: 30, 5: 30}
	for _, s := range spans {
		if s.SelfNS != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.SelfNS, want[s.ID])
		}
	}
}

// BENCHMARK.json is what the driver reads; the registry in metrics.go and
// cells.go is what the benchmark prints. They must name the same things.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []*workload
	for _, w := range ledgerWorkloads {
		if !w.unlisted {
			listed = append(listed, w)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the ledger", len(spec.Workloads), len(listed))
	}
	for i, w := range listed {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, ledger has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the ledger", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, ledger has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Each workload should answer to the layer it was chosen for. The delta rerun
// pulls 3 MB of committed chunks through the reserved containers' links, so
// halving their bandwidth should nearly double its JCT, while the CPU-bound
// mr_none, which pushes a quarter of that, stays inside its bound. Doubling
// the link latency is run and logged but not asserted on: on the reference
// box a hop costs about 1.1 ms whether the link is set to 0.5 or 1 ms, so
// neither the round trip nor any JCT moves. README.md records the numbers.
func TestCellSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six timed passes")
	}
	type point struct{ jct, rtt, eff float64 }
	run := func(name string, cal calib) point {
		b := &bench{w: workloadByName(name), cal: cal, seed: defaultSeed}
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		var o outcome
		s := samples{}
		b.addEndToEnd(s, tally(&o, b.measure(4*time.Second, false)))
		if o.Failed > 0 {
			t.Fatalf("%s: failed reps: %v", name, o.Errors)
		}
		if err := b.probeSimnet(s); err != nil {
			t.Fatal(err)
		}
		return point{median(s["jct_min"]), median(s["simnet.rtt_us"]), median(s["simnet.xfer_eff"])}
	}
	slowLink, thinLink := paperCell, paperCell
	slowLink.latency *= 2
	thinLink.reservedBW /= 2
	var jctBound float64
	for _, d := range endToEnd {
		if d.name == "jct_min" {
			jctBound = d.bound
		}
	}
	for _, name := range []string{"mr_none", "mr_delta"} {
		base, slow, thin := run(name, paperCell), run(name, slowLink), run(name, thinLink)
		t.Logf("%-8s base: jct_min %.3f rtt_us %.0f | latency x2: jct_min %.3f (%+.1f%%) rtt_us %.0f (x%.2f) | reserved bandwidth /2: jct_min %.3f (x%.2f) xfer_eff %.3f",
			name, base.jct, base.rtt, slow.jct, (slow.jct/base.jct-1)*100, slow.rtt, slow.rtt/base.rtt,
			thin.jct, thin.jct/base.jct, thin.eff)
		if thin.eff < 0.9 || thin.eff > 1.1 {
			t.Errorf("%s: 1 MiB over the halved link took 1/%.2f of the time its rate allows", name, thin.eff)
		}
		switch name {
		case "mr_none":
			if thin.jct > base.jct*(1+jctBound) {
				t.Errorf("mr_none: jct_min rose from %.3f to %.3f on the halved link, beyond its bound", base.jct, thin.jct)
			}
		case "mr_delta":
			if thin.jct < 1.5*base.jct {
				t.Errorf("mr_delta: jct_min went from %.3f to %.3f on the halved link, want at least x1.5", base.jct, thin.jct)
			}
		}
	}
}
