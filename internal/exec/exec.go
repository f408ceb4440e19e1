// Package exec interprets fused operator chains over materialized record
// partitions. Both engines (the Pado runtime and the Spark-like baseline)
// share this interpreter so result differences between engines can only
// come from scheduling and data movement, never from operator semantics.
package exec

import (
	"fmt"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
)

// Inputs carries the externally supplied inputs of a fragment run.
type Inputs struct {
	// Ext maps an operator to its tagged external inputs: the main
	// input under "", additional aligned inputs under "in1", "in2", ...
	Ext map[dag.VertexID]map[string][]data.Record
	// Sides maps an operator to its materialized broadcast side inputs
	// by side-input name.
	Sides map[dag.VertexID]map[string][]data.Record
	// Read maps a ReadOp vertex to an iterator opener for the task's
	// partition.
	Read map[dag.VertexID]func() (dataflow.Iterator, error)
	// Created maps a CreateOp vertex to its records (the runtime passes
	// the op's captured records).
	Created map[dag.VertexID][]data.Record
	// Accs maps a CombineOp to (key, accumulator) records that producer
	// tasks folded before the boundary (see Combiner); the combine merges
	// them into its table alongside any raw main input.
	Accs map[dag.VertexID][]data.Record
	// Throttle, when set, is charged once per record an operator
	// consumes (an accumulator counts as one record), modeling
	// per-executor CPU capacity. It blocks until capacity is available
	// and returns an error when the executor is shutting down.
	Throttle func(records int) error
}

type sideMap map[string][]data.Record

func (s sideMap) Get(name string) []data.Record { return s[name] }

// RunFragment executes ops (a topologically ordered fused fragment of g)
// and returns the output records of every operator in the fragment.
// Intra-fragment one-to-one edges are wired automatically; everything
// else must be provided via in.
func RunFragment(g *dag.Graph, ops []dag.VertexID, in Inputs) (map[dag.VertexID][]data.Record, error) {
	inFrag := make(map[dag.VertexID]bool, len(ops))
	for _, op := range ops {
		inFrag[op] = true
	}
	out := make(map[dag.VertexID][]data.Record, len(ops))

	for _, id := range ops {
		v := g.Vertex(id)
		// Assemble tagged inputs: intra-fragment edges first, then
		// externally provided ones.
		tagged := make(map[string][]data.Record)
		for _, e := range g.InEdges(id) {
			if inFrag[e.From] {
				if e.Dep != dag.OneToOne {
					return nil, fmt.Errorf("exec: intra-fragment %v edge into %q", e.Dep, v.Name)
				}
				tagged[e.Tag] = append(tagged[e.Tag], out[e.From]...)
			}
		}
		if ext, ok := in.Ext[id]; ok {
			for tag, recs := range ext {
				tagged[tag] = append(tagged[tag], recs...)
			}
		}

		if in.Throttle != nil {
			n := len(in.Accs[id])
			for _, recs := range tagged {
				n += len(recs)
			}
			if n > 0 {
				if err := in.Throttle(n * dataflow.OpCost(v)); err != nil {
					return nil, err
				}
			}
		}
		recs, err := runOp(v, tagged, in)
		if err != nil {
			return nil, fmt.Errorf("exec: operator %q: %w", v.Name, err)
		}
		out[id] = recs
	}
	return out, nil
}

func runOp(v *dag.Vertex, tagged map[string][]data.Record, in Inputs) ([]data.Record, error) {
	switch op := v.Op.(type) {
	case *dataflow.CreateOp:
		if recs, ok := in.Created[v.ID]; ok {
			return recs, nil
		}
		return op.Records, nil

	case *dataflow.ReadOp:
		open, ok := in.Read[v.ID]
		if !ok {
			return nil, fmt.Errorf("no reader provided")
		}
		it, err := open()
		if err != nil {
			return nil, err
		}
		defer it.Close()
		var recs []data.Record
		for {
			r, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return recs, nil
			}
			recs = append(recs, r)
		}

	case *dataflow.ParDoOp:
		sides := sideMap{}
		if s, ok := in.Sides[v.ID]; ok {
			sides = sideMap(s)
		}
		var outRecs []data.Record
		emit := func(r data.Record) { outRecs = append(outRecs, r) }
		if bf, ok := op.Fn.(dataflow.BundleDoFn); ok {
			if err := bf.ProcessBundle(tagged[""], sides, emit); err != nil {
				return nil, err
			}
			return outRecs, nil
		}
		for _, r := range tagged[""] {
			if err := op.Fn.Process(r, sides, emit); err != nil {
				return nil, err
			}
		}
		return outRecs, nil

	case *dataflow.MultiOp:
		var outRecs []data.Record
		emit := func(r data.Record) { outRecs = append(outRecs, r) }
		if err := op.Fn.ProcessPartition(tagged, emit); err != nil {
			return nil, err
		}
		return outRecs, nil

	case *dataflow.CombineOp:
		// Combines normally run on the receiving side; interpreting one
		// here (the Spark-like reduce path) merges the map-side
		// accumulators and folds the materialized partition directly.
		t := NewAccTable(op.Fn, op.Global)
		for _, a := range in.Accs[v.ID] {
			t.MergeAcc(a.Key, a.Value)
		}
		for _, r := range tagged[""] {
			t.AddRecord(r)
		}
		return t.Extract(), nil

	default:
		return nil, fmt.Errorf("unknown operator payload %T", v.Op)
	}
}
