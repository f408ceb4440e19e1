package runtime

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pado/internal/chaos"
	"pado/internal/cluster"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/storage"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// fpWordSource is the fingerprinted (word, count) source of the incremental
// tests and the per-word sums of what it generates.
func fpWordSource(parts, recsPerPart, dirtyParts int, salt int64) (*dataflow.FuncSource, map[string]int64) {
	seed := func(p int) int64 {
		s := int64(p) + 1
		if p < dirtyParts {
			s += 1000 + salt
		}
		return s
	}
	src := &dataflow.FuncSource{
		Partitions: parts,
		Gen: func(p int) (int, func() data.Record) {
			rng := rand.New(rand.NewSource(seed(p)))
			return recsPerPart, func() data.Record {
				return data.KV(fmt.Sprintf("w%03d", rng.Intn(100)), int64(rng.Intn(10)))
			}
		},
		Fingerprint: func(p int) string { return fmt.Sprintf("fpwc/%d/%d", p, seed(p)) },
	}
	expect := make(map[string]int64)
	for p := 0; p < parts; p++ {
		recs, _ := dataflow.ReadAll(src, p)
		for _, r := range recs {
			expect[r.Key.(string)] += r.Value.(int64)
		}
	}
	return src, expect
}

// buildFPWordCount is buildWordCount with a fingerprinted source, which is
// what makes stages content-addressable (core/fingerprint.go): the first
// dirtyParts partitions fold salt into both their records and their
// fingerprints, so reruns with a different salt see exactly that slice of
// the input changed. postName, when non-empty, appends a renamed follow-up
// stage (scale ×2 then re-sum) so tests can invalidate the consumer stage
// between runs while the producer stays cached.
func buildFPWordCount(parts, recsPerPart, dirtyParts int, salt int64, postName string) (*dataflow.Pipeline, map[string]int64) {
	src, expect := fpWordSource(parts, recsPerPart, dirtyParts, salt)
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
	return runIncrementalOn(t, newTestCluster(t, 4, 2, rate), pipe, Config{Commits: store, Tracer: tracer})
}

func runIncrementalOn(t *testing.T, cl *cluster.Cluster, pipe *dataflow.Pipeline, cfg Config) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, cl, pipe.Graph(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.TimedOut {
		t.Fatal("timed out")
	}
	return res
}

// checkRerunInvariants checks the §3.2.5 exactly-once commit invariants and
// no-parent-relaunch over a traced run.
func checkRerunInvariants(t *testing.T, tracer *obs.Tracer, res *Result) {
	t.Helper()
	parents := make(map[int][]int, len(res.Plan.Stages))
	for _, ps := range res.Plan.Stages {
		parents[ps.ID] = ps.Parents
	}
	if report := chaos.Check(tracer.Events(), parents); !report.OK() {
		t.Errorf("invariants: %s", report)
	}
}

// taskCommitSections reads back every "task/" commit of the store: per
// commit key, the section list in each receiver's chunk.
func taskCommitSections(t *testing.T, store *storage.CommitStore) map[string][][]pushSection {
	t.Helper()
	out := make(map[string][][]pushSection)
	for _, key := range store.Keys() {
		if !strings.HasPrefix(key, "task/") {
			continue
		}
		for _, part := range store.Resolve(key, false).Parts {
			b, ok := store.GetChunk(part[0])
			if !ok {
				t.Fatalf("commit %s names chunk %.12s, which is not stored", key, part[0])
			}
			secs, err := readSections(data.NewDecoder(bytes.NewReader(b)))
			if err != nil {
				t.Fatalf("commit %s: %v", key, err)
			}
			out[key] = append(out[key], secs)
		}
	}
	return out
}

// dropStageCommits deletes every stage-level commit, so that a rerun's
// stage probe misses and the per-task commits decide what is skipped.
func dropStageCommits(t *testing.T, store *storage.CommitStore) {
	t.Helper()
	for _, key := range store.Keys() {
		if strings.HasPrefix(key, "stage/") {
			if err := store.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
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
	checkRerunInvariants(t, tracer, res2)
}

// TestIncrementalCombinedCommitsAreContentStable primes the same input into
// one store twice. A content-addressable task of a combine stage commits its
// output combined per receiver — whatever DisablePartialAggregation says,
// which governs only the cross-task buffer — and the combined payload is a
// pure function of the task's input: the second priming recomputes every
// task and adds not one chunk.
func TestIncrementalCombinedCommitsAreContentStable(t *testing.T) {
	const parts = 8
	store := storage.NewCommitStore()
	prime := func(noBuffer bool) *Result {
		pipe, expect := buildFPWordCount(parts, 300, 0, 0, "")
		res := runIncrementalOn(t, newTestCluster(t, 4, 2, trace.RateNone), pipe,
			Config{Commits: store, DisablePartialAggregation: noBuffer})
		checkWordCount(t, res, expect)
		return res
	}
	prime(false)
	commits := taskCommitSections(t, store)
	if len(commits) != parts {
		t.Fatalf("%d task commits after priming, want %d", len(commits), parts)
	}
	for key, perRecv := range commits {
		for ri, secs := range perRecv {
			if len(secs) != 1 || !secs[0].Aggregated {
				t.Errorf("%s receiver %d: sections %+v, want one combined section", key, ri, secs)
			}
		}
	}
	before := store.Stats()

	// Forget every commit but keep the chunks: nothing is skipped, and every
	// put of the second priming has to find its content already stored.
	for _, key := range store.Keys() {
		if err := store.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	res := prime(true)
	if n := res.Metrics.Named[metrics.NameTasksSkipped] + res.Metrics.Named[metrics.NameStagesSkipped]; n != 0 {
		t.Fatalf("the second priming skipped %d tasks or stages, want it to recompute everything", n)
	}
	after := store.Stats()
	if after.Chunks != before.Chunks || after.UsedBytes != before.UsedBytes {
		t.Errorf("second priming of the same input: %d chunks / %d bytes, want the first priming's %d / %d",
			after.Chunks, after.UsedBytes, before.Chunks, before.UsedBytes)
	}
	if after.DedupPuts-before.DedupPuts < int64(before.Chunks) {
		t.Errorf("%d deduplicated puts in the second priming, want every one of the %d chunks put again",
			after.DedupPuts-before.DedupPuts, before.Chunks)
	}
}

// TestIncrementalMixedRawAndCombinedTaskCommits reruns against a store in
// which half the "task/" commits hold raw sections, written by hand the way
// a build before the combined encoding wrote them, and the other half hold
// combined ones. The section codec says which is which, so every task is
// skipped and the output is the reference.
func TestIncrementalMixedRawAndCombinedTaskCommits(t *testing.T) {
	const parts, recsPerPart = 8, 300
	store := storage.NewCommitStore()
	pipe1, expect := buildFPWordCount(parts, recsPerPart, 0, 0, "")
	res1 := runIncremental(t, pipe1, store, trace.RateNone, nil)

	src, _ := fpWordSource(parts, recsPerPart, 0, 0)
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	ps := res1.Plan.Stages[0]
	for ti := 0; ti < parts; ti += 2 {
		groups := make([][]data.Record, ps.RootParallelism)
		recs, _ := dataflow.ReadAll(src, ti)
		for _, r := range recs {
			p := data.Partition(r.Key, len(groups))
			groups[p] = append(groups[p], r)
		}
		m := &storage.Manifest{Key: taskCommitKey(ps.TaskKeys[0][ti])}
		for _, g := range groups {
			payload, err := data.EncodeAll(kv, g)
			if err != nil {
				t.Fatal(err)
			}
			block, err := sectionsBlock([]pushSection{{Payload: payload}})
			if err != nil {
				t.Fatal(err)
			}
			m.Parts = append(m.Parts, []string{store.PutChunk(block)})
		}
		if err := store.Commit(m); err != nil {
			t.Fatal(err)
		}
	}
	raw, combined := 0, 0
	for _, perRecv := range taskCommitSections(t, store) {
		if perRecv[0][0].Aggregated {
			combined++
		} else {
			raw++
		}
	}
	if raw != parts/2 || combined != parts/2 {
		t.Fatalf("store holds %d raw and %d combined task commits, want %d of each", raw, combined, parts/2)
	}
	dropStageCommits(t, store)

	pipe2, _ := buildFPWordCount(parts, recsPerPart, 0, 0, "")
	res2 := runIncremental(t, pipe2, store, trace.RateNone, nil)
	checkWordCount(t, res2, expect)
	if n := res2.Metrics.Named[metrics.NameTasksSkipped]; n != parts {
		t.Errorf("tasks_skipped = %d, want all %d", n, parts)
	}
	if !reflect.DeepEqual(sortedOutputs(t, res1), sortedOutputs(t, res2)) {
		t.Error("rerun over mixed commits differs from the priming run")
	}
}

// TestIncrementalDeltaRerunUnderFaults reruns a delta against a primed
// store while something goes wrong on each side of the commit plane: the
// executor of a dirty task is evicted while the task pushes, and the chunks
// of one skipped task are collected between the probe that pinned them and
// the receivers' pull (an operator unpinning, deleting and collecting under
// a running job). Both must keep exactly-once and the golden output; the
// lost skip must come back as a pull_failed relaunch of just that task.
func TestIncrementalDeltaRerunUnderFaults(t *testing.T) {
	const parts, recsPerPart, dirty, lost = 16, 200, 2, 5
	for _, tc := range []struct {
		name       string
		pullFailed int // pull_failed relaunches the fault must cause
		fault      func(t *testing.T, cl *cluster.Cluster, tracer *obs.Tracer, store *storage.CommitStore, lostKey string) (chaosHook ChaosHook, fired func() bool)
	}{
		{"evict-dirty-mid-push", 0, func(t *testing.T, cl *cluster.Cluster, tracer *obs.Tracer, _ *storage.CommitStore, _ string) (ChaosHook, func() bool) {
			plan := &chaos.Plan{Name: "evict-dirty", Rules: []chaos.Rule{{
				Trigger: chaos.On("push_started"),
				Fault:   chaos.Fault{Op: chaos.OpEvict, Target: "@event", Stage: chaos.Any},
			}}}
			if err := plan.Validate(); err != nil {
				t.Fatal(err)
			}
			eng := chaos.NewEngine(plan, cl)
			eng.Attach(tracer)
			t.Cleanup(eng.Stop)
			return eng, func() bool { eng.Stop(); return len(eng.Injections()) > 0 }
		}},
		{"skipped-chunk-collected", 1, func(t *testing.T, _ *cluster.Cluster, tracer *obs.Tracer, store *storage.CommitStore, lostKey string) (ChaosHook, func() bool) {
			collected := false
			sub := tracer.SubscribeSync(func(ev obs.Event) {
				if ev.Kind == obs.TaskSkipped && ev.Task == lost && !collected {
					collected = true
					store.Unpin(lostKey)
					if err := store.Delete(lostKey); err != nil {
						t.Error(err)
					}
					store.GC()
				}
			})
			t.Cleanup(sub.Close)
			return nil, func() bool { return collected }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewCommitStore()
			pipe1, _ := buildFPWordCount(parts, recsPerPart, 0, 0, "")
			res1 := runIncremental(t, pipe1, store, trace.RateNone, nil)

			// A link latency keeps a push in flight long enough for the
			// asynchronous injector to land inside it.
			cl, err := cluster.New(cluster.Config{Transient: 4, Reserved: 2, Slots: 4, Latency: 2 * time.Millisecond,
				Lifetimes: trace.Lifetimes(trace.RateNone), Scale: vtime.NewScale(50 * time.Millisecond), Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			tracer := obs.New()
			hook, fired := tc.fault(t, cl, tracer, store, taskCommitKey(res1.Plan.Stages[0].TaskKeys[0][lost]))
			pipe2, expect2 := buildFPWordCount(parts, recsPerPart, dirty, 7, "")
			res2 := runIncrementalOn(t, cl, pipe2, Config{Commits: store, Tracer: tracer, Chaos: hook})
			checkWordCount(t, res2, expect2)
			checkRerunInvariants(t, tracer, res2)
			if !fired() {
				t.Fatal("the fault never fired; the scenario was not exercised")
			}
			if n := res2.Metrics.Named[metrics.NameTasksSkipped]; n != parts-dirty {
				t.Errorf("tasks_skipped = %d, want %d", n, parts-dirty)
			}
			pullFailed := 0
			for _, ev := range tracer.Events() {
				if ev.Kind == obs.TaskRelaunched && strings.Contains(ev.Note, "pull_failed") {
					pullFailed++
					if ev.Task != lost {
						t.Errorf("task %d relaunched after a failed pull, want only task %d", ev.Task, lost)
					}
				}
			}
			if pullFailed != tc.pullFailed {
				t.Errorf("%d pull_failed relaunches, want %d", pullFailed, tc.pullFailed)
			}
		})
	}
}

// TestIncrementalCombinedEncodingReach pins which content-addressable tasks
// take the combined encoding. A global combine (the shape of MLR's gradient
// sum) takes it; a combine without an accumulator coder keeps raw
// sections, as does any fragment the combiner cannot apply to.
func TestIncrementalCombinedEncodingReach(t *testing.T) {
	const parts, recsPerPart = 8, 300
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}

	t.Run("global-combine", func(t *testing.T) {
		vec := data.KVCoder{K: data.NilCoder, V: data.Float64sCoder}
		src, sums := fpWordSource(parts, recsPerPart, 0, 0)
		var want float64
		for _, v := range sums {
			want += float64(v)
		}
		build := func() *dataflow.Pipeline {
			p := dataflow.NewPipeline()
			p.Read("read-views", src, kv).
				ParDo("to-vec", dataflow.MapFunc(func(r data.Record) data.Record {
					return data.Record{Value: []float64{float64(r.Value.(int64)), 1}}
				}), vec).
				CombineGlobally("sum-gradients", dataflow.SumFloat64sFn{}, vec, dataflow.WithAccumulatorCoder(vec))
			return p
		}
		check := func(res *Result) {
			t.Helper()
			for _, out := range res.Outputs {
				if len(out) != 1 || !reflect.DeepEqual(out[0].Value, []float64{want, parts * recsPerPart}) {
					t.Errorf("output %+v, want the one vector [%v %v]", out, want, parts*recsPerPart)
				}
			}
		}
		store := storage.NewCommitStore()
		check(runIncremental(t, build(), store, trace.RateNone, nil))
		for key, perRecv := range taskCommitSections(t, store) {
			if len(perRecv) != 1 || len(perRecv[0]) != 1 || !perRecv[0][0].Aggregated {
				t.Errorf("%s: %+v, want one combined section for the one receiver", key, perRecv)
			}
		}
		dropStageCommits(t, store)
		res := runIncremental(t, build(), store, trace.RateNone, nil)
		check(res)
		if n := res.Metrics.Named[metrics.NameTasksSkipped]; n != parts {
			t.Errorf("tasks_skipped = %d, want all %d", n, parts)
		}
	})

	t.Run("no-accumulator-coder", func(t *testing.T) {
		src, expect := fpWordSource(parts, recsPerPart, 0, 0)
		p := dataflow.NewPipeline()
		p.Read("read-views", src, kv).
			ParDo("map", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv).
			CombinePerKey("sum", dataflow.SumInt64Fn{}, kv)
		store := storage.NewCommitStore()
		checkWordCount(t, runIncremental(t, p, store, trace.RateNone, nil), expect)
		commits := taskCommitSections(t, store)
		if len(commits) != parts {
			t.Fatalf("%d task commits, want %d", len(commits), parts)
		}
		for key, perRecv := range commits {
			for ri, secs := range perRecv {
				if len(secs) != 1 || secs[0].Aggregated {
					t.Errorf("%s receiver %d: sections %+v, want one raw section", key, ri, secs)
				}
			}
		}
	})
}
