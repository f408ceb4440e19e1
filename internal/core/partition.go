package core

import (
	"fmt"
	"sort"

	"pado/internal/dag"
)

// Stage is a basic unit of execution (paper §3.1.2): the subgraph rooted
// at one reserved operator (or at a terminal transient operator) together
// with the transient parent operators recursively folded into it.
//
// By construction a stage contains at most one reserved operator, and the
// stage's output — the root's output — lives on reserved containers (or is
// written to the sink), so child stages can always fetch their inputs
// without recomputing parent stages.
type Stage struct {
	ID int
	// Root is the operator that created the stage: its reserved
	// operator, or a terminal transient operator.
	Root dag.VertexID
	// Ops lists every operator executed by this stage in topological
	// order (transient parents first, Root last). A transient operator
	// shared by several reserved consumers appears in several stages
	// and is re-executed by each (or served from the task input cache).
	Ops []dag.VertexID
	// Parents and Children are stage ids connected by cross-stage data
	// dependencies, deduplicated, in ascending order.
	Parents  []int
	Children []int
}

// HasReservedRoot reports whether the stage's root runs on reserved
// containers.
func (s *Stage) HasReservedRoot(g *dag.Graph) bool {
	return g.Vertex(s.Root).Placement == dag.PlaceReserved
}

// PartitionStages runs Algorithm 2 over the DAG under the given placement
// assignment: traverse vertices in topological order; every reserved
// operator — and every operator without outgoing edges — opens a new
// stage, into which its transient parents are added recursively. A parent
// placed on reserved containers instead links its own stage as a parent of
// the current one.
//
// The assignment is an explicit input — partitioning never reads or
// mutates placement state on the graph itself. Callers that hand-annotate
// graphs can snapshot them with PlacementsFromGraph.
func PartitionStages(g *dag.Graph, pl Placements) ([]*Stage, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		if pl.Of(id) == dag.PlaceNone {
			return nil, fmt.Errorf("core: vertex %q is unplaced; place it first", g.Vertex(id).Name)
		}
	}

	stageOf := make(map[dag.VertexID]*Stage) // reserved vertex -> its stage
	var stages []*Stage

	for _, id := range order {
		isRoot := pl.Reserved(id) || len(g.OutEdges(id)) == 0
		if !isRoot {
			continue
		}
		st := &Stage{ID: len(stages), Root: id}
		stages = append(stages, st)
		if pl.Reserved(id) {
			stageOf[id] = st
		}
		inStage := make(map[dag.VertexID]bool)
		parents := make(map[int]bool)
		var add func(op dag.VertexID)
		add = func(op dag.VertexID) {
			if inStage[op] {
				return
			}
			inStage[op] = true
			for _, p := range g.Parents(op) {
				pv := g.Vertex(p)
				if pl.Of(p) == dag.PlaceTransient {
					add(p)
				} else {
					ps, ok := stageOf[p]
					if !ok {
						// Topological order guarantees the parent's
						// stage exists already.
						panic(fmt.Sprintf("core: reserved parent %q has no stage", pv.Name))
					}
					if ps.ID != st.ID {
						parents[ps.ID] = true
					}
				}
			}
			st.Ops = append(st.Ops, op)
		}
		add(id)
		// add() appends parents after marking the child during its
		// post-order walk... it appends op after recursing, so Ops is
		// already topologically ordered (parents first, Root last).
		for pid := range parents {
			st.Parents = append(st.Parents, pid)
		}
		sort.Ints(st.Parents)
		for _, pid := range st.Parents {
			stages[pid].Children = append(stages[pid].Children, st.ID)
		}
	}
	return stages, nil
}

// Compile runs the full pipeline: validation, parallelism resolution,
// placement by Algorithm 1 (PaperRule), the placement legality check,
// stage partitioning, and physical planning.
//
// The assignment is annotated back onto the graph for DOT rendering and
// plan printing, but partitioning and planning consume it as an explicit
// value.
func Compile(g *dag.Graph, cfg PlanConfig) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := ResolveParallelism(g, cfg); err != nil {
		return nil, err
	}
	pl, err := PaperRule{}.Place(g)
	if err != nil {
		return nil, err
	}
	if err := CheckPlacements(g, pl); err != nil {
		return nil, fmt.Errorf("core: Algorithm 1 cannot place this DAG legally: %w", err)
	}
	pl.Apply(g)
	stages, err := PartitionStages(g, pl)
	if err != nil {
		return nil, err
	}
	plan, err := BuildPlan(g, pl, stages, cfg)
	if err != nil {
		return nil, err
	}
	if err := computeCacheKeys(g, plan); err != nil {
		return nil, err
	}
	return plan, nil
}
