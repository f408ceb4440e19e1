package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/storage"
	"pado/internal/trace"
)

// buildFPWordCount is buildWordCount with a fingerprinted source, which is
// what makes stages content-addressable (core/fingerprint.go): the first
// dirtyParts partitions fold salt into both their records and their
// fingerprints, so reruns with a different salt see exactly that slice of
// the input changed. postName, when non-empty, appends a renamed follow-up
// stage (scale ×2 then re-sum) so tests can invalidate the consumer stage
// between runs while the producer stays cached.
func buildFPWordCount(parts, recsPerPart, dirtyParts int, salt int64, postName string) (*dataflow.Pipeline, map[string]int64) {
	seed := func(p int) int64 {
		s := int64(p) + 1
		if p < dirtyParts {
			s += 1000 + salt
		}
		return s
	}
	src := &dataflow.FuncSource{
		Partitions: parts,
		Gen: func(p int) []data.Record {
			rng := rand.New(rand.NewSource(seed(p)))
			recs := make([]data.Record, recsPerPart)
			for i := range recs {
				recs[i] = data.KV(fmt.Sprintf("w%03d", rng.Intn(100)), int64(rng.Intn(10)))
			}
			return recs
		},
		Fingerprint: func(p int) string { return fmt.Sprintf("fpwc/%d/%d", p, seed(p)) },
	}
	expect := make(map[string]int64)
	for p := 0; p < parts; p++ {
		for _, r := range src.Gen(p) {
			expect[r.Key.(string)] += r.Value.(int64)
		}
	}

	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	c := p.Read("read-views", src, kv)
	mapped := c.ParDo("map", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv)
	summed := mapped.CombinePerKey("sum", dataflow.SumInt64Fn{}, kv,
		dataflow.WithAccumulatorCoder(kv))
	if postName != "" {
		doubled := summed.ParDo(postName, dataflow.MapFunc(func(r data.Record) data.Record {
			return data.KV(r.Key, r.Value.(int64)*2)
		}), kv)
		doubled.CombinePerKey("resum", dataflow.SumInt64Fn{}, kv,
			dataflow.WithAccumulatorCoder(kv))
		for k, v := range expect {
			expect[k] = v * 2
		}
	}
	return p, expect
}

// sortedOutputs canonicalizes a result's single-output record set for
// cross-run comparison.
func sortedOutputs(t *testing.T, res *Result) []data.Record {
	t.Helper()
	var recs []data.Record
	for _, out := range res.Outputs {
		recs = out
	}
	sorted := append([]data.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key.(string) < sorted[j].Key.(string) })
	return sorted
}

func runIncremental(t *testing.T, pipe *dataflow.Pipeline, store *storage.CommitStore,
	rate trace.Rate, tracer *obs.Tracer) *Result {
	t.Helper()
	cl := newTestCluster(t, 4, 2, rate)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, pipe.Graph(), Config{
		Commits: store,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	return res
}

// TestIncrementalUnchangedRerunSkipsEverything reruns an identical
// pipeline against the same commit store: the whole job must be served
// from commits — zero tasks launched, byte-identical output partitions —
// with the skip visible in the stage/task counters.
func TestIncrementalUnchangedRerunSkipsEverything(t *testing.T) {
	store := storage.NewCommitStore()
	pipe1, expect := buildFPWordCount(8, 300, 0, 0, "")
	res1 := runIncremental(t, pipe1, store, trace.RateNone, obs.New())
	checkWordCount(t, res1, expect)
	launched1 := res1.Metrics.Named["obs.task_launched"]
	if launched1 == 0 {
		t.Fatal("first run launched no tasks")
	}
	if res1.Metrics.Named[metrics.NameCommitWrites] == 0 {
		t.Error("first run wrote no commits")
	}

	pipe2, _ := buildFPWordCount(8, 300, 0, 0, "")
	res2 := runIncremental(t, pipe2, store, trace.RateNone, obs.New())
	checkWordCount(t, res2, expect)
	m2 := res2.Metrics.Named
	if n := m2["obs.task_launched"]; n != 0 {
		t.Errorf("unchanged rerun launched %d tasks, want 0", n)
	}
	if m2[metrics.NameStagesSkipped] == 0 {
		t.Error("unchanged rerun skipped no stages")
	}
	if m2[metrics.NameCommitHits] == 0 {
		t.Error("unchanged rerun recorded no commit hits")
	}
	if !reflect.DeepEqual(sortedOutputs(t, res1), sortedOutputs(t, res2)) {
		t.Error("rerun output differs from original")
	}
}

// TestIncrementalDeltaRerunLaunchesOnlyChangedCone dirties 1 of 128 input
// partitions between runs. The stage-level key misses, but every clean
// task is served from its task commit: the rerun launches only the dirty
// source task plus the downstream receivers — under 10% of the first
// run's tasks — and still produces the updated result exactly.
func TestIncrementalDeltaRerunLaunchesOnlyChangedCone(t *testing.T) {
	const parts = 128
	store := storage.NewCommitStore()
	pipe1, _ := buildFPWordCount(parts, 60, 0, 0, "")
	res1 := runIncremental(t, pipe1, store, trace.RateNone, obs.New())
	launched1 := res1.Metrics.Named["obs.task_launched"]

	pipe2, expect2 := buildFPWordCount(parts, 60, 1, 7, "")
	res2 := runIncremental(t, pipe2, store, trace.RateNone, obs.New())
	checkWordCount(t, res2, expect2)
	m2 := res2.Metrics.Named
	launched2 := m2["obs.task_launched"]
	if launched2*10 >= launched1 {
		t.Errorf("delta rerun launched %d of %d tasks, want under 10%%", launched2, launched1)
	}
	if n := m2[metrics.NameTasksSkipped]; n != parts-1 {
		t.Errorf("tasks_skipped = %d, want %d", n, parts-1)
	}
	if m2[metrics.NameStagesSkipped] != 0 {
		t.Errorf("stages_skipped = %d on a changed stage, want 0", m2[metrics.NameStagesSkipped])
	}
	if m2[metrics.NameCASBytesServed] == 0 {
		t.Error("no bytes served from the commit store")
	}
}

// TestIncrementalSkippedParentConsumerUnderEviction pins the rerun chaos
// invariants: the producer stage is served from the commit store while
// its renamed consumer recomputes under aggressive evictions, fetching
// the skipped stage's partitions from the CAS. The skipped stage must
// never be scheduled (no parent recompute), and the §3.2.5 exactly-once
// commit invariants must hold throughout the eviction-driven relaunches.
func TestIncrementalSkippedParentConsumerUnderEviction(t *testing.T) {
	store := storage.NewCommitStore()
	pipe1, expect1 := buildFPWordCount(8, 300, 0, 0, "post-v1")
	res1 := runIncremental(t, pipe1, store, trace.RateNone, obs.New())
	checkWordCount(t, res1, expect1)

	tracer := obs.New()
	pipe2, expect2 := buildFPWordCount(8, 300, 0, 0, "post-v2")
	res2 := runIncremental(t, pipe2, store, trace.RateHigh, tracer)
	checkWordCount(t, res2, expect2)

	skipped := -1
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.StageSkipped {
			skipped = ev.Stage
		}
	}
	if skipped < 0 {
		t.Fatal("no stage was skipped on the rerun")
	}
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.StageScheduled && ev.Stage == skipped {
			t.Fatalf("skipped stage %d was scheduled", skipped)
		}
	}
	parents := make(map[int][]int, len(res2.Plan.Stages))
	for _, ps := range res2.Plan.Stages {
		parents[ps.ID] = ps.Parents
	}
	if report := chaos.Check(tracer.Events(), parents); !report.OK() {
		t.Errorf("invariants: %s", report)
	}
}
