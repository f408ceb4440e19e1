package core

import (
	"fmt"
	"sort"

	"pado/internal/dag"
)

// PlanConfig parameterizes the compiler pipeline.
type PlanConfig struct {
	// ReduceParallelism is the task count for many-to-many consumers
	// (hash-shuffle receivers). Defaults to 8.
	ReduceParallelism int
	// Policy has one value: placement is always PaperRule. The field
	// exists because the frozen bench/ledger assigns core.PaperRule{} to
	// it.
	Policy PaperRule
	// Env is the capacity of the cell the job runs on. Placement ignores
	// it; the job manager sizes the job's reserved-slot demand from it.
	Env PolicyEnv
}

func (c PlanConfig) reduceParallelism() int {
	if c.ReduceParallelism <= 0 {
		return 8
	}
	return c.ReduceParallelism
}

// BoundaryEdge is an intra-stage edge from a transient operator to the
// stage's reserved root. Its data crosses from transient to reserved
// executors via the push path.
type BoundaryEdge struct {
	From dag.VertexID
	Dep  dag.DepType
	Tag  string
}

// Fragment is a fused chain (in general, a weakly connected one-to-one
// subgraph) of transient operators within a stage, expanded into
// Parallelism identical tasks (§3.2.2 operator fusion).
type Fragment struct {
	// Index of this fragment within its stage.
	Index int
	// Ops in topological order; all share Parallelism.
	Ops []dag.VertexID
	// Parallelism is the task count of the fragment.
	Parallelism int
	// Boundaries are the edges from this fragment's operators to the
	// stage's reserved root.
	Boundaries []BoundaryEdge
}

// Contains reports whether the fragment includes the vertex.
func (f *Fragment) Contains(id dag.VertexID) bool {
	for _, op := range f.Ops {
		if op == id {
			return true
		}
	}
	return false
}

// StageInput is a cross-stage data dependency: an operator of this stage
// consumes the output of another stage's root, which lives on reserved
// executors (or the sink) and can therefore always be fetched without
// recomputation.
type StageInput struct {
	ToOp       dag.VertexID
	FromStage  int
	FromVertex dag.VertexID
	Dep        dag.DepType
	Tag        string
	// Cached marks the fetch as cacheable in executor memory
	// (§3.2.7 task input caching).
	Cached bool
}

// PhysStage is the physical form of a Stage: transient fragments feeding
// an optional reserved root.
type PhysStage struct {
	ID   int
	Root dag.VertexID
	// RootReserved is false only for terminal transient stages, whose
	// outputs are pushed straight to the job's sink collector.
	RootReserved bool
	// RootParallelism is the task count of the root operator.
	RootParallelism int
	// RootFragment, for terminal transient stages, is the fragment that
	// contains the root (-1 when RootReserved).
	RootFragment int
	// Fragments are the stage's transient fragments (possibly none).
	Fragments []*Fragment
	// Inputs are cross-stage dependencies of any operator in the stage.
	Inputs []StageInput
	// Parents and Children are stage ids, ascending.
	Parents  []int
	Children []int
	// CacheKey identifies this stage's output in the commit store:
	// H(operator fingerprints, source data identity) over the whole
	// upstream cone. "" (stage not cacheable — an unfingerprinted
	// source upstream, or a transient root) disables commit-store
	// probes and writes for the stage. See fingerprint.go.
	CacheKey string
	// TaskKeys, for source-only stages, holds one cache key per task
	// ([fragment][task]); a nil inner slice means that fragment's tasks
	// are not individually cacheable. Task keys let a rerun skip the
	// unchanged tasks of a stage whose stage-level key missed because a
	// few source partitions changed.
	TaskKeys [][]string
}

// Terminal reports whether the stage has no children (its output is the
// job output).
func (s *PhysStage) Terminal() bool { return len(s.Children) == 0 }

// InputsTo returns the cross-stage inputs consumed by op.
func (s *PhysStage) InputsTo(op dag.VertexID) []StageInput {
	var out []StageInput
	for _, in := range s.Inputs {
		if in.ToOp == op {
			out = append(out, in)
		}
	}
	return out
}

// Plan is the compiled physical execution plan.
type Plan struct {
	Graph  *dag.Graph
	Stages []*PhysStage
}

// Stage returns the physical stage with the given id.
func (p *Plan) Stage(id int) *PhysStage { return p.Stages[id] }

// TerminalStages returns ids of stages without children, ascending.
func (p *Plan) TerminalStages() []int {
	var out []int
	for _, s := range p.Stages {
		if s.Terminal() {
			out = append(out, s.ID)
		}
	}
	return out
}

// BuildPlan lowers the logical stages onto physical stages with fused
// transient fragments, resolved boundaries, and cross-stage inputs. The
// placement assignment is the same explicit value the stages were
// partitioned under.
func BuildPlan(g *dag.Graph, pl Placements, stages []*Stage, cfg PlanConfig) (*Plan, error) {
	rootStage := make(map[dag.VertexID]int) // reserved root vertex -> stage id
	for _, st := range stages {
		if pl.Reserved(st.Root) {
			rootStage[st.Root] = st.ID
		}
	}

	plan := &Plan{Graph: g, Stages: make([]*PhysStage, len(stages))}
	for _, st := range stages {
		ps, err := buildPhysStage(g, pl, st, rootStage)
		if err != nil {
			return nil, err
		}
		plan.Stages[st.ID] = ps
	}
	// Stage parent/child links derive from the resolved inputs so they
	// include every dependency the executor actually fetches.
	for _, ps := range plan.Stages {
		seen := map[int]bool{}
		for _, in := range ps.Inputs {
			if !seen[in.FromStage] {
				seen[in.FromStage] = true
				ps.Parents = append(ps.Parents, in.FromStage)
			}
		}
		sort.Ints(ps.Parents)
		for _, pid := range ps.Parents {
			plan.Stages[pid].Children = append(plan.Stages[pid].Children, ps.ID)
		}
	}
	return plan, nil
}

func buildPhysStage(g *dag.Graph, pl Placements, st *Stage, rootStage map[dag.VertexID]int) (*PhysStage, error) {
	root := g.Vertex(st.Root)
	ps := &PhysStage{
		ID:              st.ID,
		Root:            st.Root,
		RootReserved:    pl.Reserved(st.Root),
		RootParallelism: root.Parallelism,
		RootFragment:    -1,
	}

	inStage := make(map[dag.VertexID]bool, len(st.Ops))
	for _, op := range st.Ops {
		inStage[op] = true
	}

	// Group the stage's transient ops into fragments: weakly connected
	// components over intra-stage one-to-one edges.
	var transient []dag.VertexID
	for _, op := range st.Ops {
		if pl.Of(op) == dag.PlaceTransient {
			transient = append(transient, op)
		}
	}
	comp := make(map[dag.VertexID]int)
	next := 0
	var assign func(op dag.VertexID, c int)
	assign = func(op dag.VertexID, c int) {
		if _, ok := comp[op]; ok {
			return
		}
		comp[op] = c
		for _, e := range g.InEdges(op) {
			if e.Dep == dag.OneToOne && inStage[e.From] && pl.Of(e.From) == dag.PlaceTransient {
				assign(e.From, c)
			}
		}
		for _, e := range g.OutEdges(op) {
			if e.Dep == dag.OneToOne && inStage[e.To] && pl.Of(e.To) == dag.PlaceTransient {
				assign(e.To, c)
			}
		}
	}
	for _, op := range transient {
		if _, ok := comp[op]; !ok {
			assign(op, next)
			next++
		}
	}
	frags := make([]*Fragment, next)
	for i := range frags {
		frags[i] = &Fragment{Index: i}
	}
	// st.Ops is topologically ordered, so appending preserves order
	// within each fragment.
	for _, op := range st.Ops {
		if c, ok := comp[op]; ok {
			frags[c].Ops = append(frags[c].Ops, op)
		}
	}
	for _, f := range frags {
		p := g.Vertex(f.Ops[0]).Parallelism
		for _, op := range f.Ops {
			if g.Vertex(op).Parallelism != p {
				return nil, fmt.Errorf("core: fragment of stage %d mixes parallelism %d and %d (op %q)",
					st.ID, p, g.Vertex(op).Parallelism, g.Vertex(op).Name)
			}
		}
		f.Parallelism = p
	}
	ps.Fragments = frags

	// Classify every in-edge of every stage op.
	for _, op := range st.Ops {
		for _, e := range g.InEdges(op) {
			from := g.Vertex(e.From)
			switch {
			case inStage[e.From] && pl.Of(e.From) == dag.PlaceTransient && op == st.Root && ps.RootReserved:
				// Transient-to-reserved boundary: the push path.
				f := frags[comp[e.From]]
				f.Boundaries = append(f.Boundaries, BoundaryEdge{From: e.From, Dep: e.Dep, Tag: e.Tag})
			case inStage[e.From] && pl.Of(e.From) == dag.PlaceTransient:
				// Transient-to-transient: must be one-to-one (fused).
				if e.Dep != dag.OneToOne {
					return nil, fmt.Errorf("core: unsupported %v edge between transient operators %q and %q within a stage",
						e.Dep, from.Name, g.Vertex(op).Name)
				}
			default:
				// Cross-stage input from a reserved root.
				fromStage, ok := rootStage[e.From]
				if !ok {
					return nil, fmt.Errorf("core: operator %q consumes reserved vertex %q which is not a stage root",
						g.Vertex(op).Name, from.Name)
				}
				ps.Inputs = append(ps.Inputs, StageInput{
					ToOp:       op,
					FromStage:  fromStage,
					FromVertex: e.From,
					Dep:        e.Dep,
					Tag:        e.Tag,
					Cached:     inputCached(g, op, e),
				})
			}
		}
	}

	if !ps.RootReserved {
		ps.RootFragment = comp[st.Root]
	}
	return ps, nil
}
