// Package core implements the Pado Compiler, the paper's primary
// contribution (§3.1): operator placement by Algorithm 1 (PaperRule) and
// the legality check its assignment must pass, partitioning of the
// logical DAG into Pado stages (Algorithm 2), and generation of the
// physical execution plan with same-placement operator fusion (§3.2.2).
package core

import (
	"fmt"

	"pado/internal/dag"
	"pado/internal/dataflow"
)

// Placements is a placement assignment for every vertex of a graph,
// indexed by dag.VertexID. It is the value passed between the placement
// layer and the partitioning layer: PaperRule produces one, and
// PartitionStages/BuildPlan consume it instead of reading mutable state
// off the graph.
type Placements []dag.Placement

// NewPlacements returns an all-PlaceNone assignment sized for g.
func NewPlacements(g *dag.Graph) Placements {
	return make(Placements, g.NumVertices())
}

// PlacementsFromGraph snapshots the placements currently annotated on g.
func PlacementsFromGraph(g *dag.Graph) Placements {
	pl := NewPlacements(g)
	for id, v := range g.Vertices() {
		pl[id] = v.Placement
	}
	return pl
}

// Of returns the placement of id, or PlaceNone when out of range.
func (pl Placements) Of(id dag.VertexID) dag.Placement {
	if int(id) < 0 || int(id) >= len(pl) {
		return dag.PlaceNone
	}
	return pl[id]
}

// Reserved reports whether id is placed on reserved containers.
func (pl Placements) Reserved(id dag.VertexID) bool { return pl.Of(id) == dag.PlaceReserved }

// Apply annotates g's vertices with the assignment, for DOT rendering and
// plan printing. PaperRule itself never mutates the graph; Compile calls
// Apply once the assignment has passed CheckPlacements.
func (pl Placements) Apply(g *dag.Graph) {
	for id, v := range g.Vertices() {
		if id < len(pl) {
			v.Placement = pl[id]
		}
	}
}

// PolicyEnv describes the capacity of the cell a job is compiled for.
// Placement does not read it: the job manager's admission control and its
// reserved_slots_budget counter do. The zero value means "capacity
// unknown".
type PolicyEnv struct {
	// ReservedSlotBudget is the total number of reserved task slots in
	// the cell (reserved nodes × slots per node). 0 disables budgeting.
	ReservedSlotBudget int
}

// PaperRule is Algorithm 1 from the paper (§3.1.1), the compiler's one
// placement rule:
//
//   - computational operators with ANY many-to-many or many-to-one input
//     dependency run on reserved containers (their eviction would force
//     recomputation of many parent tasks);
//   - computational operators whose inputs are ALL one-to-one AND ALL come
//     from reserved operators run on reserved containers (data locality);
//   - every other computational operator runs on transient containers;
//   - source operators that read external storage (ISREAD) run on
//     transient containers, sources that create data in memory
//     (ISCREATED) on reserved containers.
type PaperRule struct{}

// Place computes the assignment without mutating g. The result is not
// necessarily legal for the runtime (see CheckPlacements): a read source
// used directly as a broadcast side input of a transient operator is one
// DAG the rule places on two transient ends.
func (PaperRule) Place(g *dag.Graph) (Placements, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	pl := NewPlacements(g)
	for _, id := range order {
		v := g.Vertex(id)
		in := g.InEdges(id)
		if len(in) == 0 {
			switch v.Kind {
			case dag.KindSourceRead:
				pl[id] = dag.PlaceTransient
			case dag.KindSourceCreate:
				pl[id] = dag.PlaceReserved
			default:
				return nil, fmt.Errorf("core: vertex %q has no inputs but kind %v", v.Name, v.Kind)
			}
			continue
		}
		if anyMatch(in, func(e dag.Edge) bool { return e.Dep.Wide() }) {
			pl[id] = dag.PlaceReserved
			continue
		}
		allOneToOne := allMatch(in, func(e dag.Edge) bool { return e.Dep == dag.OneToOne })
		allFromReserved := allMatch(in, func(e dag.Edge) bool {
			return pl.Reserved(e.From)
		})
		if allOneToOne && allFromReserved {
			pl[id] = dag.PlaceReserved
		} else {
			pl[id] = dag.PlaceTransient
		}
	}
	return pl, nil
}

// CheckPlacements verifies that an assignment satisfies the runtime's
// placement constraints:
//
//  1. read sources must be transient (reserved roots cannot execute
//     ReadOps) and created sources must be reserved (their data must
//     survive evictions);
//  2. any consumer of a many-to-one or many-to-many edge must be reserved
//     (transient fragments only support one-to-one and one-to-many
//     cross-stage inputs);
//  3. a one-to-many (broadcast) edge cannot connect two transient
//     operators, because such an edge cannot be fused into one fragment.
//
// Compile runs it after PaperRule, so a user DAG that Algorithm 1 cannot
// place legally fails with a placement error rather than a downstream
// partitioning panic.
func CheckPlacements(g *dag.Graph, pl Placements) error {
	for id, v := range g.Vertices() {
		vid := dag.VertexID(id)
		switch pl.Of(vid) {
		case dag.PlaceTransient, dag.PlaceReserved:
		default:
			return fmt.Errorf("core: vertex %q is unplaced", v.Name)
		}
		if len(g.InEdges(vid)) == 0 {
			if v.Kind == dag.KindSourceRead && pl.Of(vid) != dag.PlaceTransient {
				return fmt.Errorf("core: read source %q must be placed transient", v.Name)
			}
			if v.Kind == dag.KindSourceCreate && pl.Of(vid) != dag.PlaceReserved {
				return fmt.Errorf("core: created source %q must be placed reserved", v.Name)
			}
		}
	}
	for _, e := range g.Edges() {
		if e.Dep.Wide() && pl.Of(e.To) != dag.PlaceReserved {
			return fmt.Errorf("core: operator %q consumes a %v dependency and must be placed reserved",
				g.Vertex(e.To).Name, e.Dep)
		}
		if e.Dep == dag.OneToMany &&
			pl.Of(e.From) == dag.PlaceTransient && pl.Of(e.To) == dag.PlaceTransient {
			return fmt.Errorf("core: broadcast edge %q -> %q cannot connect two transient operators",
				g.Vertex(e.From).Name, g.Vertex(e.To).Name)
		}
	}
	return nil
}

func anyMatch(edges []dag.Edge, pred func(dag.Edge) bool) bool {
	for _, e := range edges {
		if pred(e) {
			return true
		}
	}
	return false
}

func allMatch(edges []dag.Edge, pred func(dag.Edge) bool) bool {
	for _, e := range edges {
		if !pred(e) {
			return false
		}
	}
	return true
}

// ResolveParallelism assigns a task count to every placed vertex:
//
//   - read sources use their partition count, created sources use 1;
//   - a many-to-many consumer uses cfg.ReduceParallelism;
//   - a many-to-one consumer uses a single task;
//   - a one-to-one consumer inherits its parents' (matching) parallelism.
//
// One-to-many (broadcast) edges impose no constraint.
func ResolveParallelism(g *dag.Graph, cfg PlanConfig) error {
	order, err := g.TopoSort()
	if err != nil {
		return err
	}
	for _, id := range order {
		v := g.Vertex(id)
		in := g.InEdges(id)
		if len(in) == 0 {
			switch op := v.Op.(type) {
			case *dataflow.ReadOp:
				v.Parallelism = op.Source.NumPartitions()
			case *dataflow.CreateOp:
				v.Parallelism = 1
			default:
				v.Parallelism = 1
			}
			if v.Parallelism <= 0 {
				return fmt.Errorf("core: source %q has no partitions", v.Name)
			}
			continue
		}
		hasMM := anyMatch(in, func(e dag.Edge) bool { return e.Dep == dag.ManyToMany })
		hasMO := anyMatch(in, func(e dag.Edge) bool { return e.Dep == dag.ManyToOne })
		switch {
		case hasMM && hasMO:
			return fmt.Errorf("core: vertex %q mixes many-to-many and many-to-one inputs", v.Name)
		case hasMM:
			v.Parallelism = cfg.reduceParallelism()
		case hasMO:
			v.Parallelism = 1
		default:
			p := 0
			for _, e := range in {
				if e.Dep != dag.OneToOne {
					continue // broadcast edges don't constrain
				}
				pp := g.Vertex(e.From).Parallelism
				if p == 0 {
					p = pp
				} else if p != pp {
					return fmt.Errorf("core: vertex %q has one-to-one inputs with mismatched parallelism (%d vs %d)", v.Name, p, pp)
				}
			}
			if p == 0 {
				return fmt.Errorf("core: vertex %q has only broadcast inputs; parallelism undetermined", v.Name)
			}
			v.Parallelism = p
		}
	}
	return nil
}
