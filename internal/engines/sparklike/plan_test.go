package sparklike

import (
	"testing"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/recache"
	"pado/internal/workloads"
)

func TestPlanMRStages(t *testing.T) {
	cfg := workloads.MRConfig{Partitions: 6, LinesPerPart: 5, Docs: 10, Seed: 1}
	plan, err := BuildPlan(workloads.MR(cfg).Graph(), core.PlanConfig{ReduceParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Classic shuffle split: map stage (read+parse fused), reduce stage.
	if len(plan.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(plan.Stages))
	}
	mapStage, reduceStage := plan.Stages[0], plan.Stages[1]
	if len(mapStage.Ops) != 2 || mapStage.Parallelism != 6 {
		t.Errorf("map stage ops=%d P=%d", len(mapStage.Ops), mapStage.Parallelism)
	}
	if len(mapStage.OutBuckets) != 1 || mapStage.OutBuckets[0].N != 4 {
		t.Errorf("map stage buckets = %+v", mapStage.OutBuckets)
	}
	if mapStage.OutWhole {
		t.Error("map stage should not need whole outputs")
	}
	if reduceStage.Parallelism != 4 || !reduceStage.OutWhole || !reduceStage.Terminal() {
		t.Errorf("reduce stage = %+v", reduceStage)
	}
	if len(reduceStage.Inputs) != 1 || reduceStage.Inputs[0].Dep != dag.ManyToMany {
		t.Errorf("reduce inputs = %+v", reduceStage.Inputs)
	}
	if mapStage.Driver || reduceStage.Driver {
		t.Error("MR stages should not be driver-resident")
	}
}

func TestPlanMLRDriverStages(t *testing.T) {
	cfg := workloads.MLRConfig{Partitions: 4, SamplesPerPart: 4, Features: 8,
		Classes: 2, NonZeros: 2, Iterations: 1, LearningRate: 0.1, Seed: 1}
	plan, err := BuildPlan(workloads.MLR(cfg).Graph(), core.PlanConfig{ReduceParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graph
	byRoot := map[string]*SStage{}
	for _, s := range plan.Stages {
		byRoot[g.Vertex(s.Root).Name] = s
	}
	// Parallelism-1 stages (model creation, global aggregation, model
	// update) run on the driver like Spark's treeAggregate tail.
	for _, name := range []string{"create-1st-model", "aggregate-gradients-1", "compute-model-2"} {
		s := byRoot[name]
		if s == nil {
			t.Fatalf("no stage rooted at %s (have %v)", name, keys(byRoot))
		}
		if !s.Driver {
			t.Errorf("%s should be driver-resident", name)
		}
	}
	grad := byRoot["compute-gradient-1"]
	if grad == nil || grad.Driver {
		t.Fatal("gradient stage missing or driver-resident")
	}
	// The gradient stage re-runs the read in its fragment.
	if len(grad.Ops) != 2 {
		t.Errorf("gradient stage ops = %d, want 2 (read fused)", len(grad.Ops))
	}
	// Its model input is a broadcast from the driver stage.
	foundSide := false
	for _, in := range grad.Inputs {
		if in.Dep == dag.OneToMany {
			foundSide = true
		}
	}
	if !foundSide {
		t.Error("gradient stage missing broadcast input")
	}
}

func keys(m map[string]*SStage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestPlanParentChildLinks(t *testing.T) {
	cfg := workloads.ALSConfig{Partitions: 4, RatingsPerPart: 10, Users: 5,
		Items: 4, Rank: 2, Iterations: 1, Lambda: 0.1, Seed: 1}
	plan, err := BuildPlan(workloads.ALS(cfg).Graph(), core.PlanConfig{ReduceParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Stages {
		for _, pid := range s.Parents {
			if pid >= s.ID {
				t.Errorf("stage %d has non-topological parent %d", s.ID, pid)
			}
			found := false
			for _, cid := range plan.Stages[pid].Children {
				if cid == s.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("stage %d missing child link to %d", pid, s.ID)
			}
		}
	}
	if len(plan.TerminalStages()) != 1 {
		t.Errorf("terminal stages = %v", plan.TerminalStages())
	}
}

// Among several executors caching a task's read, the master picks the
// lowest id with a free slot, every time: Go's map order must not decide
// a placement (the Pado master has the same rule).
func TestPickExecutorCachedTieBreak(t *testing.T) {
	cfg := workloads.MLRConfig{Partitions: 4, SamplesPerPart: 4, Features: 8,
		Classes: 2, NonZeros: 2, Iterations: 1, LearningRate: 0.1, Seed: 1}
	plan, err := BuildPlan(workloads.MLR(cfg).Graph(), core.PlanConfig{ReduceParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var grad *SStage
	for _, s := range plan.Stages {
		if plan.Graph.Vertex(s.Root).Name == "compute-gradient-1" {
			grad = s
		}
	}
	if grad == nil {
		t.Fatal("no gradient stage")
	}
	const task = 3
	m := &master{
		plan:       plan,
		slotsFree:  map[string]int{"t7": 1, "t2": 1, "t5": 1},
		cacheIndex: map[recache.Key]map[string]bool{},
	}
	// The stage's first op is its fused, cached read.
	m.cacheIndex[recache.Key{Vertex: grad.Ops[0], Partition: task}] = map[string]bool{"t7": true, "t2": true, "t5": true}
	for i := 0; i < 50; i++ {
		if got := m.pickExecutor(grad, task); got != "t2" {
			t.Fatalf("call %d picked %q, want t2", i, got)
		}
	}
	m.slotsFree["t2"] = 0
	for i := 0; i < 50; i++ {
		if got := m.pickExecutor(grad, task); got != "t5" {
			t.Fatalf("call %d with t2 full picked %q, want t5", i, got)
		}
	}
}
