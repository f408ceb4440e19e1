package core

import (
	"strings"
	"testing"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/workloads"
)

// placePaper runs Algorithm 1 (PaperRule) over g and annotates
// every vertex with the resulting placement, for tests that hand-place
// graphs instead of going through Compile.
func placePaper(g *dag.Graph) error {
	pl, err := PaperRule{}.Place(g)
	if err != nil {
		return err
	}
	pl.Apply(g)
	return nil
}

// placementByName compiles the graph and returns operator placements
// keyed by vertex name.
func placementByName(t *testing.T, g *dag.Graph) map[string]dag.Placement {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := placePaper(g); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]dag.Placement)
	for _, v := range g.Vertices() {
		out[v.Name] = v.Placement
	}
	return out
}

func expectPlacements(t *testing.T, got map[string]dag.Placement, want map[string]dag.Placement) {
	t.Helper()
	for name, placement := range want {
		if got[name] != placement {
			t.Errorf("operator %q placed %v, want %v", name, got[name], placement)
		}
	}
}

// TestPlacementMapReduce checks Figure 3(a): Read and Map transient,
// Reduce reserved.
func TestPlacementMapReduce(t *testing.T) {
	g := workloads.MR(workloads.MRConfig{Partitions: 4, LinesPerPart: 10, Docs: 10, Seed: 1}).Graph()
	got := placementByName(t, g)
	expectPlacements(t, got, map[string]dag.Placement{
		"read-pageviews": dag.PlaceTransient,
		"parse":          dag.PlaceTransient,
		"sum-views":      dag.PlaceReserved,
	})
}

// TestPlacementMLR checks Figure 3(b): Create 1st Model reserved, Read
// Training Data and Compute Gradient transient, Aggregate Gradients and
// Compute Nth Model reserved.
func TestPlacementMLR(t *testing.T) {
	cfg := workloads.MLRConfig{Partitions: 4, SamplesPerPart: 4, Features: 8,
		Classes: 2, NonZeros: 2, Iterations: 2, LearningRate: 0.1, Seed: 1}
	g := workloads.MLR(cfg).Graph()
	got := placementByName(t, g)
	expectPlacements(t, got, map[string]dag.Placement{
		"create-1st-model":      dag.PlaceReserved,  // ISCREATED
		"read-training-data":    dag.PlaceTransient, // ISREAD
		"compute-gradient-1":    dag.PlaceTransient, // o-o + o-m inputs
		"aggregate-gradients-1": dag.PlaceReserved,  // m-o input
		"compute-model-2":       dag.PlaceReserved,  // all o-o from reserved
		"compute-gradient-2":    dag.PlaceTransient,
		"aggregate-gradients-2": dag.PlaceReserved,
		"compute-model-3":       dag.PlaceReserved,
	})
}

// TestPlacementALS checks Figure 3(c): Read and the compute operators
// transient, the aggregations reserved, and Compute 1st Item Factor
// reserved by the data-locality rule (all one-to-one inputs from
// reserved operators).
func TestPlacementALS(t *testing.T) {
	cfg := workloads.ALSConfig{Partitions: 4, RatingsPerPart: 10, Users: 5,
		Items: 4, Rank: 2, Iterations: 2, Lambda: 0.1, Seed: 1}
	g := workloads.ALS(cfg).Graph()
	got := placementByName(t, g)
	expectPlacements(t, got, map[string]dag.Placement{
		"read-ratings":            dag.PlaceTransient,
		"key-by-user":             dag.PlaceTransient,
		"key-by-item":             dag.PlaceTransient,
		"aggregate-user-data":     dag.PlaceReserved, // m-m input
		"aggregate-item-data":     dag.PlaceReserved,
		"compute-1st-item-factor": dag.PlaceReserved, // locality rule
		"compute-user-factor-1":   dag.PlaceTransient,
		"aggregate-user-factor-1": dag.PlaceReserved,
		"compute-item-factor-2":   dag.PlaceTransient,
		"aggregate-item-factor-2": dag.PlaceReserved,
	})
}

func TestPlacementLocalityChainStaysReserved(t *testing.T) {
	// A chain of one-to-one operators below a reserved operator stays
	// reserved (Algorithm 1's second rule applied transitively).
	p := dataflow.NewPipeline()
	kv := workloads.CountCoder
	read := p.Read("read", &dataflow.FuncSource{Partitions: 2, Gen: nil}, kv)
	reduced := read.CombinePerKey("reduce", dataflow.SumInt64Fn{}, kv)
	m1 := reduced.ParDo("post1", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv)
	m2 := m1.ParDo("post2", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv)
	got := placementByName(t, p.Graph())
	expectPlacements(t, got, map[string]dag.Placement{
		"read":   dag.PlaceTransient,
		"reduce": dag.PlaceReserved,
		"post1":  dag.PlaceReserved,
		"post2":  dag.PlaceReserved,
	})
	_ = m2
}

// TestPartitioningMLRStages checks Algorithm 2 on the MLR DAG: every
// stage is rooted at a reserved operator and transient parents fold in.
func TestPartitioningMLRStages(t *testing.T) {
	cfg := workloads.MLRConfig{Partitions: 4, SamplesPerPart: 4, Features: 8,
		Classes: 2, NonZeros: 2, Iterations: 2, LearningRate: 0.1, Seed: 1}
	g := workloads.MLR(cfg).Graph()
	if err := placePaper(g); err != nil {
		t.Fatal(err)
	}
	if err := ResolveParallelism(g, PlanConfig{ReduceParallelism: 3}); err != nil {
		t.Fatal(err)
	}
	stages, err := PartitionStages(g, PlacementsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	// Expected stages: create-model, (read+gradient->aggregate) x2,
	// model-update x2 = 1 + 2 + 2 = 5, plus none terminal-transient.
	if len(stages) != 5 {
		for _, s := range stages {
			t.Logf("stage %d root=%s ops=%d", s.ID, g.Vertex(s.Root).Name, len(s.Ops))
		}
		t.Fatalf("got %d stages, want 5", len(stages))
	}
	byRoot := make(map[string]*Stage)
	for _, s := range stages {
		if !s.HasReservedRoot(g) {
			t.Errorf("stage %d has non-reserved root %s", s.ID, g.Vertex(s.Root).Name)
		}
		byRoot[g.Vertex(s.Root).Name] = s
	}
	agg1 := byRoot["aggregate-gradients-1"]
	if agg1 == nil {
		t.Fatal("no stage rooted at aggregate-gradients-1")
	}
	names := map[string]bool{}
	for _, op := range agg1.Ops {
		names[g.Vertex(op).Name] = true
	}
	if !names["read-training-data"] || !names["compute-gradient-1"] {
		t.Errorf("aggregate stage missing transient parents: %v", names)
	}
	// The shared Read operator must also appear in iteration 2's stage
	// (recomputed or cached, per Algorithm 2).
	agg2 := byRoot["aggregate-gradients-2"]
	found := false
	for _, op := range agg2.Ops {
		if g.Vertex(op).Name == "read-training-data" {
			found = true
		}
	}
	if !found {
		t.Error("shared Read not re-added to second iteration's stage")
	}
}

// TestCompileMLRPlan checks the physical plan: fragments, boundaries,
// cross-stage inputs, and caching flags.
func TestCompileMLRPlan(t *testing.T) {
	cfg := workloads.MLRConfig{Partitions: 4, SamplesPerPart: 4, Features: 8,
		Classes: 2, NonZeros: 2, Iterations: 1, LearningRate: 0.1, Seed: 1}
	g := workloads.MLR(cfg).Graph()
	plan, err := Compile(g, PlanConfig{ReduceParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	var aggStage *PhysStage
	for _, ps := range plan.Stages {
		if g.Vertex(ps.Root).Name == "aggregate-gradients-1" {
			aggStage = ps
		}
	}
	if aggStage == nil {
		t.Fatal("no aggregate stage in plan")
	}
	if !aggStage.RootReserved {
		t.Error("aggregate root should be reserved")
	}
	if aggStage.RootParallelism != 1 {
		t.Errorf("many-to-one root parallelism = %d, want 1", aggStage.RootParallelism)
	}
	if len(aggStage.Fragments) != 1 {
		t.Fatalf("fragments = %d, want 1", len(aggStage.Fragments))
	}
	frag := aggStage.Fragments[0]
	if frag.Parallelism != cfg.Partitions {
		t.Errorf("fragment parallelism = %d, want %d", frag.Parallelism, cfg.Partitions)
	}
	if len(frag.Boundaries) != 1 || frag.Boundaries[0].Dep != dag.ManyToOne {
		t.Errorf("boundaries = %+v", frag.Boundaries)
	}
	// The gradient operator's side input (the model) must be a cached
	// broadcast cross-stage input.
	foundSide := false
	for _, si := range aggStage.Inputs {
		if si.Dep == dag.OneToMany {
			foundSide = true
			if !si.Cached {
				t.Error("model side input should be cached")
			}
		}
	}
	if !foundSide {
		t.Error("no broadcast input found for the gradient stage")
	}
	// The model-update stage has two aligned cross-stage inputs and no
	// fragments.
	var updStage *PhysStage
	for _, ps := range plan.Stages {
		if g.Vertex(ps.Root).Name == "compute-model-2" {
			updStage = ps
		}
	}
	if updStage == nil {
		t.Fatal("no update stage")
	}
	if len(updStage.Fragments) != 0 {
		t.Errorf("update stage has %d fragments", len(updStage.Fragments))
	}
	if len(updStage.Inputs) != 2 {
		t.Errorf("update stage inputs = %+v", updStage.Inputs)
	}
	// Terminal stage = final model.
	terms := plan.TerminalStages()
	if len(terms) != 1 || plan.Stage(terms[0]).Root != updStage.Root {
		t.Errorf("terminal stages = %v", terms)
	}
}

func TestResolveParallelismRules(t *testing.T) {
	cfg := workloads.MRConfig{Partitions: 7, LinesPerPart: 1, Docs: 5, Seed: 1}
	g := workloads.MR(cfg).Graph()
	if err := placePaper(g); err != nil {
		t.Fatal(err)
	}
	if err := ResolveParallelism(g, PlanConfig{ReduceParallelism: 9}); err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Vertices() {
		switch v.Name {
		case "read-pageviews", "parse":
			if v.Parallelism != 7 {
				t.Errorf("%s parallelism = %d, want 7", v.Name, v.Parallelism)
			}
		case "sum-views":
			if v.Parallelism != 9 {
				t.Errorf("%s parallelism = %d, want 9", v.Name, v.Parallelism)
			}
		}
	}
}

func TestReduceParallelismDefault(t *testing.T) {
	if (PlanConfig{}).reduceParallelism() != 8 {
		t.Error("default reduce parallelism should be 8")
	}
}

func TestCompileRejectsUnplacedPartitioning(t *testing.T) {
	g := workloads.MR(workloads.MRConfig{Partitions: 2, LinesPerPart: 1, Docs: 2, Seed: 1}).Graph()
	if _, err := PartitionStages(g, PlacementsFromGraph(g)); err == nil || !strings.Contains(err.Error(), "unplaced") {
		t.Errorf("expected unplaced error, got %v", err)
	}
}

func TestTerminalTransientStage(t *testing.T) {
	// A pipeline ending on a transient operator forms a terminal
	// transient stage whose root is in a fragment.
	p := dataflow.NewPipeline()
	kv := workloads.CountCoder
	read := p.Read("read", &dataflow.FuncSource{Partitions: 3, Gen: nil}, kv)
	read.ParDo("map-only", dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv)
	plan, err := Compile(p.Graph(), PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(plan.Stages))
	}
	ps := plan.Stages[0]
	if ps.RootReserved {
		t.Error("map-only root should be transient")
	}
	if ps.RootFragment != 0 || len(ps.Fragments) != 1 {
		t.Errorf("root fragment = %d of %d", ps.RootFragment, len(ps.Fragments))
	}
	if !ps.Terminal() {
		t.Error("stage should be terminal")
	}
}
