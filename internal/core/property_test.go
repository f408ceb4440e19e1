package core

import (
	"math/rand"
	"strings"
	"testing"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
)

// randomPipeline builds a random but well-formed pipeline: sources feed
// chains of ParDo/CombinePerKey/CombineGlobally with occasional side
// inputs, mirroring the DAG shapes the compiler must handle.
func randomPipeline(rng *rand.Rand) *dataflow.Pipeline {
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	var cols []dataflow.Collection
	// A mix of read and created sources.
	nSrc := 1 + rng.Intn(3)
	for i := 0; i < nSrc; i++ {
		if rng.Intn(3) == 0 {
			cols = append(cols, p.Create("create", []data.Record{{Value: int64(i)}}, kv))
		} else {
			cols = append(cols, p.Read("read", &dataflow.FuncSource{Partitions: 1 + rng.Intn(6)}, kv))
		}
	}
	nOps := 2 + rng.Intn(10)
	for i := 0; i < nOps; i++ {
		from := cols[rng.Intn(len(cols))]
		switch rng.Intn(4) {
		case 0, 1:
			opts := []dataflow.ParDoOpt{}
			// Side inputs only from keyed-combine outputs (reserved
			// providers, as in the real workloads).
			if rng.Intn(3) == 0 {
				side := cols[rng.Intn(len(cols))]
				// Avoid self side input.
				if side.VertexID() != from.VertexID() {
					opts = append(opts, dataflow.WithSide(dataflow.SideInput{Name: "s", From: side}))
				}
			}
			cols = append(cols, from.ParDo("pardo",
				dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv, opts...))
		case 2:
			cols = append(cols, from.CombinePerKey("combine", dataflow.SumInt64Fn{}, kv))
		case 3:
			cols = append(cols, from.CombineGlobally("global", dataflow.SumInt64Fn{}, kv))
		}
	}
	return p
}

// TestPlacementInvariants checks Algorithm 1's postconditions on random
// DAGs: every vertex is placed; wide-edge consumers are reserved;
// transient computational vertices have at least one input that is not
// one-to-one-from-reserved; created sources are reserved, read sources
// transient.
func TestPlacementInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20170423))
	for trial := 0; trial < 200; trial++ {
		g := randomPipeline(rng).Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid pipeline: %v", trial, err)
		}
		if err := placePaper(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, v := range g.Vertices() {
			in := g.InEdges(v.ID)
			switch {
			case v.Placement == dag.PlaceNone:
				t.Fatalf("trial %d: vertex %q unplaced", trial, v.Name)
			case len(in) == 0:
				want := dag.PlaceTransient
				if v.Kind == dag.KindSourceCreate {
					want = dag.PlaceReserved
				}
				if v.Placement != want {
					t.Fatalf("trial %d: source %v placed %v", trial, v.Kind, v.Placement)
				}
			default:
				anyWide := false
				allOOFromReserved := true
				for _, e := range in {
					if e.Dep.Wide() {
						anyWide = true
					}
					if e.Dep != dag.OneToOne || g.Vertex(e.From).Placement != dag.PlaceReserved {
						allOOFromReserved = false
					}
				}
				want := dag.PlaceTransient
				if anyWide || allOOFromReserved {
					want = dag.PlaceReserved
				}
				if v.Placement != want {
					t.Fatalf("trial %d: vertex %q placed %v, want %v", trial, v.Name, v.Placement, want)
				}
			}
		}
	}
}

// TestPartitioningInvariants checks Algorithm 2's postconditions on
// random DAGs: every vertex appears in at least one stage; each stage
// has exactly one root; roots are reserved or sinks; all non-root ops in
// a stage are transient; stage parent ids are smaller (topological).
func TestPartitioningInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		g := randomPipeline(rng).Graph()
		if err := placePaper(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		stages, err := PartitionStages(g, PlacementsFromGraph(g))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		covered := map[dag.VertexID]bool{}
		for _, s := range stages {
			root := g.Vertex(s.Root)
			if root.Placement != dag.PlaceReserved && len(g.OutEdges(s.Root)) != 0 {
				t.Fatalf("trial %d: stage %d root %q neither reserved nor sink", trial, s.ID, root.Name)
			}
			if s.Ops[len(s.Ops)-1] != s.Root {
				t.Fatalf("trial %d: stage %d root not last in Ops", trial, s.ID)
			}
			for _, op := range s.Ops {
				covered[op] = true
				if op != s.Root && g.Vertex(op).Placement != dag.PlaceTransient {
					t.Fatalf("trial %d: stage %d contains non-root reserved op %q",
						trial, s.ID, g.Vertex(op).Name)
				}
			}
			for _, pid := range s.Parents {
				if pid >= s.ID {
					t.Fatalf("trial %d: stage %d has parent %d", trial, s.ID, pid)
				}
			}
		}
		for _, v := range g.Vertices() {
			if !covered[v.ID] {
				t.Fatalf("trial %d: vertex %q in no stage", trial, v.Name)
			}
		}
	}
}

// TestPolicyInvariants carries one random pipeline through every compiler
// step on the Placements value Algorithm 1 returns — Place,
// CheckPlacements, PartitionStages, BuildPlan — and checks each step's
// postconditions on that assignment. The subtest is named for the
// placement rule under test.
func TestPolicyInvariants(t *testing.T) {
	cfg := PlanConfig{ReduceParallelism: 3}
	t.Run("paper", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20170423))
		trials := 0
		for trials < 150 {
			g := randomPipeline(rng).Graph()
			if err := g.Validate(); err != nil {
				t.Fatalf("invalid pipeline: %v", err)
			}
			if err := ResolveParallelism(g, cfg); err != nil {
				// Some random DAGs are legitimately rejected (e.g.
				// mismatched one-to-one parallelism); skip those.
				continue
			}
			pl, err := PaperRule{}.Place(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckPlacements(g, pl); err != nil {
				// Algorithm 1 legitimately rejects some random DAGs (e.g.
				// a broadcast side input fed by a transient source);
				// Compile surfaces that as a placement error.
				continue
			}
			trials++
			stages, err := PartitionStages(g, pl)
			if err != nil {
				t.Fatalf("trial %d: %v", trials, err)
			}
			covered := map[dag.VertexID]bool{}
			for _, s := range stages {
				if !pl.Reserved(s.Root) && len(g.OutEdges(s.Root)) != 0 {
					t.Fatalf("trial %d: stage %d root %q neither reserved nor sink",
						trials, s.ID, g.Vertex(s.Root).Name)
				}
				if s.Ops[len(s.Ops)-1] != s.Root {
					t.Fatalf("trial %d: stage %d root not last in Ops", trials, s.ID)
				}
				for _, op := range s.Ops {
					covered[op] = true
					if op != s.Root && pl.Of(op) != dag.PlaceTransient {
						t.Fatalf("trial %d: stage %d contains non-root reserved op %q",
							trials, s.ID, g.Vertex(op).Name)
					}
				}
				for _, pid := range s.Parents {
					if pid >= s.ID {
						t.Fatalf("trial %d: stage %d has parent %d", trials, s.ID, pid)
					}
				}
			}
			for _, v := range g.Vertices() {
				if !covered[v.ID] {
					t.Fatalf("trial %d: vertex %q in no stage", trials, v.Name)
				}
			}
			plan, err := BuildPlan(g, pl, stages, cfg)
			if err != nil {
				t.Fatalf("trial %d: a checked assignment must plan: %v", trials, err)
			}
			for _, ps := range plan.Stages {
				for _, f := range ps.Fragments {
					if f.Parallelism <= 0 {
						t.Fatalf("trial %d: fragment with parallelism %d", trials, f.Parallelism)
					}
					for _, b := range f.Boundaries {
						if !f.Contains(b.From) {
							t.Fatalf("trial %d: boundary source outside fragment", trials)
						}
					}
				}
				for _, si := range ps.Inputs {
					if si.FromStage >= ps.ID {
						t.Fatalf("trial %d: stage %d input from non-ancestor %d", trials, ps.ID, si.FromStage)
					}
					if !plan.Stages[si.FromStage].RootReserved {
						t.Fatalf("trial %d: cross-stage input from a non-reserved root", trials)
					}
				}
			}
		}
	})
}

// TestPaperRuleFigure3Golden asserts Algorithm 1 (PaperRule) reproduces the
// paper's Figure 3(a)-(c) placements for MR, MLR, and ALS exactly — every
// vertex, not a subset.
func TestPaperRuleFigure3Golden(t *testing.T) {
	golden := map[string]map[string]dag.Placement{
		"mr": {
			"read-pageviews": dag.PlaceTransient,
			"parse":          dag.PlaceTransient,
			"sum-views":      dag.PlaceReserved,
		},
		"mlr": {
			"create-1st-model":      dag.PlaceReserved,
			"read-training-data":    dag.PlaceTransient,
			"compute-gradient-1":    dag.PlaceTransient,
			"aggregate-gradients-1": dag.PlaceReserved,
			"compute-model-2":       dag.PlaceReserved,
			"compute-gradient-2":    dag.PlaceTransient,
			"aggregate-gradients-2": dag.PlaceReserved,
			"compute-model-3":       dag.PlaceReserved,
		},
		"als": {
			"read-ratings":            dag.PlaceTransient,
			"key-by-user":             dag.PlaceTransient,
			"key-by-item":             dag.PlaceTransient,
			"aggregate-user-data":     dag.PlaceReserved,
			"aggregate-item-data":     dag.PlaceReserved,
			"compute-1st-item-factor": dag.PlaceReserved,
			"compute-user-factor-1":   dag.PlaceTransient,
			"aggregate-user-factor-1": dag.PlaceReserved,
			"compute-item-factor-2":   dag.PlaceTransient,
			"aggregate-item-factor-2": dag.PlaceReserved,
			"compute-user-factor-2":   dag.PlaceTransient,
			"aggregate-user-factor-2": dag.PlaceReserved,
			"compute-item-factor-3":   dag.PlaceTransient,
			"aggregate-item-factor-3": dag.PlaceReserved,
		},
	}
	for w, want := range golden {
		g := goldenGraph(w)
		pl, err := PaperRule{}.Place(g)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if g.NumVertices() != len(want) {
			t.Fatalf("%s: golden map covers %d vertices, graph has %d", w, len(want), g.NumVertices())
		}
		for _, v := range g.Vertices() {
			if got := pl.Of(v.ID); got != want[v.Name] {
				t.Errorf("%s: %q placed %v, want %v", w, v.Name, got, want[v.Name])
			}
		}
	}
}

// TestPlanInvariants checks the physical plan on random DAGs: every DAG
// whose Algorithm 1 assignment passes CheckPlacements compiles, fragment
// parallelism is uniform, boundary sources are in the fragment, and
// cross-stage inputs reference reserved roots of earlier stages.
func TestPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := PlanConfig{ReduceParallelism: 3}
	trials := 0
	for trials < 150 {
		g := randomPipeline(rng).Graph()
		// Some random DAGs are legitimately rejected: mismatched one-to-one
		// parallelism after a reduce, or a broadcast side input read
		// straight from a transient source, which Algorithm 1 cannot place
		// legally. Skip those; every other DAG must compile.
		if err := ResolveParallelism(g, cfg); err != nil {
			continue
		}
		pl, err := PaperRule{}.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		if CheckPlacements(g, pl) != nil {
			continue
		}
		plan, err := Compile(g, cfg)
		if err != nil {
			t.Fatalf("trial %d: a legally placed DAG must compile: %v", trials, err)
		}
		trials++
		for _, ps := range plan.Stages {
			for _, f := range ps.Fragments {
				if f.Parallelism <= 0 {
					t.Fatalf("fragment with parallelism %d", f.Parallelism)
				}
				for _, op := range f.Ops {
					if g.Vertex(op).Parallelism != f.Parallelism {
						t.Fatal("fragment mixes parallelism")
					}
				}
				for _, b := range f.Boundaries {
					if !f.Contains(b.From) {
						t.Fatal("boundary source outside fragment")
					}
				}
			}
			for _, si := range ps.Inputs {
				if si.FromStage >= ps.ID {
					t.Fatalf("stage %d input from non-ancestor %d", ps.ID, si.FromStage)
				}
				from := plan.Stages[si.FromStage]
				if from.Root != si.FromVertex {
					t.Fatal("cross-stage input not from a stage root")
				}
				if !from.RootReserved {
					t.Fatal("cross-stage input from a non-reserved root")
				}
			}
		}
	}
}

// TestCompileRejectsTransientBroadcast pins what Compile does with a DAG
// Algorithm 1 cannot place legally: a read source used directly as the
// broadcast side input of a ParDo over another read. Both ends of the
// broadcast edge are transient, and such an edge cannot be fused, so
// Compile must fail with CheckPlacements' error naming that edge.
func TestCompileRejectsTransientBroadcast(t *testing.T) {
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	side := p.Read("read-side", &dataflow.FuncSource{Partitions: 2}, kv)
	p.Read("read-main", &dataflow.FuncSource{Partitions: 3}, kv).ParDo("use-side",
		dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv,
		dataflow.WithSide(dataflow.SideInput{Name: "s", From: side}))
	_, err := Compile(p.Graph(), PlanConfig{})
	if err == nil {
		t.Fatal("compiled a broadcast edge between two transient operators")
	}
	if want := `broadcast edge "read-side" -> "use-side"`; !strings.Contains(err.Error(), want) {
		t.Errorf("Compile error = %v, want it to name %s", err, want)
	}
}
