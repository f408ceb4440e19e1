package integration

import (
	"context"
	"testing"
	"time"

	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/engines/sparklike"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/trace"
	"pado/internal/workloads"
)

// TestCombinedShuffleBytesEqualAcrossEngines makes DESIGN §1's claim that
// the engines differ only in cross-task aggregation, push and placement
// executable on MR. Both fold each map task's output into one accumulator
// table per reduce partition through exec.Combiner and exec.FoldPartitions.
// With Pado's cross-task aggregation off (AggMaxTasks 1) and no evictions,
// the bytes Pado's map tasks push must therefore equal, byte for byte, the
// bytes Spark-like's reduce tasks pull from the map stage. The driver's
// collection of the terminal output is not part of the shuffle; it emits no
// fetch event and is accounted for separately.
func TestCombinedShuffleBytesEqualAcrossEngines(t *testing.T) {
	cfg := workloads.MRConfig{Partitions: 10, LinesPerPart: 800, Docs: 2000, Seed: 3}
	plan := core.PlanConfig{ReduceParallelism: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	pres, err := runtime.Run(ctx, testCluster(t, 6, 2, trace.RateNone, 101), workloads.MR(cfg).Graph(),
		runtime.Config{Plan: plan, AggMaxTasks: 1})
	if err != nil {
		t.Fatalf("pado run: %v", err)
	}

	tr := obs.New()
	sres, err := sparklike.Run(ctx, testCluster(t, 6, 2, trace.RateNone, 101), workloads.MR(cfg).Graph(),
		sparklike.Config{Plan: plan, Tracer: tr})
	if err != nil {
		t.Fatalf("sparklike run: %v", err)
	}
	if pres.Metrics.TimedOut || sres.Metrics.TimedOut {
		t.Fatal("a run timed out")
	}
	mapStages := map[int]bool{}
	for _, st := range sres.Plan.Stages {
		if len(st.OutBuckets) > 0 {
			mapStages[st.ID] = true
		}
	}
	if len(mapStages) != 1 {
		t.Fatalf("MR has %d map stages, want 1", len(mapStages))
	}
	var shuffled int64
	for _, ev := range tr.Events() {
		if ev.Kind == obs.FetchDone && mapStages[ev.Stage] {
			shuffled += ev.Bytes
		}
	}
	if shuffled == 0 || shuffled != pres.Metrics.BytesPushed {
		t.Errorf("spark-like shuffled %d B, pado pushed %d B; want equal and nonzero",
			shuffled, pres.Metrics.BytesPushed)
	}

	// Everything else Spark-like fetched is the driver's collection: one
	// block per reduce partition, each with its own record-count header.
	// Encoding the whole output as one block instead undercounts the
	// collection by those headers (4 × 2 B − 2 B here) and leaves a false
	// 6 B gap between the engines.
	parts := make([][]data.Record, plan.ReduceParallelism)
	for _, recs := range sres.Outputs {
		for _, r := range recs {
			p := data.Partition(r.Key, len(parts))
			parts[p] = append(parts[p], r)
		}
	}
	var collected int64
	for _, recs := range parts {
		b, err := data.EncodeAll(workloads.CountCoder, recs)
		if err != nil {
			t.Fatal(err)
		}
		collected += int64(len(b))
	}
	if got := sres.Metrics.BytesFetched; got != shuffled+collected {
		t.Errorf("spark-like fetched %d B, want %d shuffled + %d collected", got, shuffled, collected)
	}
}
