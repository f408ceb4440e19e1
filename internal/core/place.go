// Package core implements the Pado Compiler, the paper's primary
// contribution (§3.1): operator placement as a pluggable policy layer
// (Algorithm 1 is the default PaperRule policy), partitioning of the
// logical DAG into Pado stages (Algorithm 2), and generation of the
// physical execution plan with same-placement operator fusion (§3.2.2).
package core

import (
	"fmt"

	"pado/internal/dag"
	"pado/internal/dataflow"
)

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
