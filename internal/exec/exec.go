// Package exec interprets fused operator chains, pushing records from
// operator to operator and materializing only what a consumer needs. Both engines (the Pado runtime and the Spark-like baseline)
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

// Outputs names what a caller takes from a fragment run. Records that only
// flow from one fused operator into the next are never held.
type Outputs struct {
	// Keep lists the operators whose full output Run returns.
	Keep []dag.VertexID
	// Sinks receive an operator's output records one at a time, in the
	// order the operator emits them. An output with a sink is held only
	// when Keep names it too or an unfused operator of the fragment reads
	// it.
	Sinks map[dag.VertexID]func(data.Record)
}

// RunFragment executes ops (a topologically ordered fused fragment of g)
// and returns the output records of every operator in the fragment.
// Intra-fragment one-to-one edges are wired automatically; everything
// else must be provided via in.
func RunFragment(g *dag.Graph, ops []dag.VertexID, in Inputs) (map[dag.VertexID][]data.Record, error) {
	return Run(g, ops, in, Outputs{Keep: ops})
}

// Run interprets ops (a topologically ordered fused fragment of g) as
// push-through chains and returns the outputs want.Keep names, plus any
// held for an unfused consumer.
//
// A per-record ParDo fuses into the operator just before it in ops when
// its only main input is a one-to-one edge from that producer and the
// producer has no other consumer, no sink and is not kept: it then runs
// inside the producer's emit. Every other operator heads a chain. A head
// reads its inputs as whole slices (held outputs of earlier operators,
// in.Ext, in.Accs), except a ReadOp, which streams from its iterator; a
// read whose records are already in memory (dataflow.Held: a cached read)
// is held as that slice. A tag with one input slice aliases it, so user
// functions must not modify their inputs (dataflow.DoFn).
//
// Throttle is charged each operator's input count times its OpCost, in ops
// order: a head before it runs, a fused operator when its head finishes.
func Run(g *dag.Graph, ops []dag.VertexID, in Inputs, want Outputs) (map[dag.VertexID][]data.Record, error) {
	r := &run{in: in, out: make(map[dag.VertexID][]data.Record, len(ops))}
	nodes, err := r.chains(g, ops, want)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(nodes); {
		j := i + 1
		for j < len(nodes) && nodes[j].fused {
			j++
		}
		head, chain := nodes[i], nodes[i:j]
		tagged := r.inputs(g, head.v)
		n := len(in.Accs[head.v.ID])
		for _, recs := range tagged {
			n += len(recs)
		}
		if err := r.charge(head.v, n); err != nil {
			return nil, err
		}
		if err := r.head(head, tagged); err != nil {
			return nil, fmt.Errorf("exec: operator %q: %w", head.v.Name, err)
		}
		if r.err != nil {
			return nil, r.err
		}
		for _, nd := range chain[1:] {
			if err := r.charge(nd.v, nd.n); err != nil {
				return nil, err
			}
		}
		for _, nd := range chain {
			if nd.keep {
				r.out[nd.v.ID] = nd.out
			}
		}
		i = j
	}
	return r.out, nil
}

// run is the state of one Run: the held outputs and the first error a
// fused operator returned.
type run struct {
	in  Inputs
	out map[dag.VertexID][]data.Record
	err error
}

// node is one operator of a running fragment.
type node struct {
	v   *dag.Vertex
	run *run
	// fused marks a per-record ParDo that runs inside its producer's
	// emit; n counts the records pushed into it, for its charge.
	fused bool
	n     int
	fn    dataflow.DoFn
	sides sideMap
	// next is the fused consumer the output goes to; without one, keep
	// holds it in out and sink receives it.
	next *node
	keep bool
	out  []data.Record
	sink func(data.Record)
	// emit is the node's emit method value, built once.
	emit dataflow.Emit
}

// chains builds the nodes of ops and decides which ParDos fuse into their
// producer's emit.
func (r *run) chains(g *dag.Graph, ops []dag.VertexID, want Outputs) ([]*node, error) {
	idx := make(map[dag.VertexID]int, len(ops))
	for i, id := range ops {
		idx[id] = i
	}
	nodes := make([]*node, len(ops))
	consumers := make([]int, len(ops))
	for i, id := range ops {
		nodes[i] = &node{v: g.Vertex(id), run: r, sink: want.Sinks[id]}
		for _, e := range g.InEdges(id) {
			if j, ok := idx[e.From]; ok {
				if e.Dep != dag.OneToOne {
					return nil, fmt.Errorf("exec: intra-fragment %v edge into %q", e.Dep, nodes[i].v.Name)
				}
				consumers[j]++
			}
		}
	}
	for _, id := range want.Keep {
		if i, ok := idx[id]; ok {
			nodes[i].keep = true
		}
	}
	for i, nd := range nodes {
		if i > 0 && consumers[i-1] == 1 && !nodes[i-1].keep && nodes[i-1].sink == nil &&
			r.fusable(g, nd.v, ops[i-1]) {
			nd.fused = true
			nd.fn = nd.v.Op.(*dataflow.ParDoOp).Fn
			nd.sides = sideMap(r.in.Sides[nd.v.ID])
			nodes[i-1].next = nd
			continue
		}
		// A head reads its in-fragment inputs as whole slices.
		for _, e := range g.InEdges(nd.v.ID) {
			if j, ok := idx[e.From]; ok {
				nodes[j].keep = true
			}
		}
	}
	for _, nd := range nodes {
		nd.emit = nd.emitOne
	}
	return nodes, nil
}

// fusable reports whether v is a per-record ParDo whose only main input is
// the one-to-one edge from prev (side inputs come from in.Sides).
func (r *run) fusable(g *dag.Graph, v *dag.Vertex, prev dag.VertexID) bool {
	op, ok := v.Op.(*dataflow.ParDoOp)
	if !ok || len(r.in.Ext[v.ID]) > 0 || len(r.in.Accs[v.ID]) > 0 {
		return false
	}
	if _, bundle := op.Fn.(dataflow.BundleDoFn); bundle {
		return false
	}
	main := 0
	for _, e := range g.InEdges(v.ID) {
		if e.Tag == "" {
			if e.From != prev {
				return false
			}
			main++
		}
	}
	return main == 1
}

// charge bills n input records of v to the throttle.
func (r *run) charge(v *dag.Vertex, n int) error {
	if r.in.Throttle == nil || n == 0 {
		return nil
	}
	return r.in.Throttle(n * dataflow.OpCost(v))
}

// inputs assembles v's tagged inputs: intra-fragment edges first, then
// externally provided ones. A tag with a single input aliases it.
func (r *run) inputs(g *dag.Graph, v *dag.Vertex) map[string][]data.Record {
	tagged := make(map[string][]data.Record)
	add := func(tag string, recs []data.Record) {
		if prev, ok := tagged[tag]; ok {
			recs = append(prev[:len(prev):len(prev)], recs...)
		}
		tagged[tag] = recs
	}
	for _, e := range g.InEdges(v.ID) {
		if recs, ok := r.out[e.From]; ok {
			add(e.Tag, recs)
		}
	}
	for tag, recs := range r.in.Ext[v.ID] {
		add(tag, recs)
	}
	return tagged
}

func (nd *node) emitOne(rec data.Record) {
	if nd.next != nil {
		nd.next.push(rec)
		return
	}
	if nd.keep {
		nd.out = append(nd.out, rec)
	}
	if nd.sink != nil {
		nd.sink(rec)
	}
}

// push runs a fused ParDo on one record its producer emitted. After a
// fused operator failed, the rest of the chain's records are dropped.
func (nd *node) push(rec data.Record) {
	if nd.run.err != nil {
		return
	}
	nd.n++
	if err := nd.fn.Process(rec, nd.sides, nd.emit); err != nil {
		nd.run.err = fmt.Errorf("exec: operator %q: %w", nd.v.Name, err)
	}
}

// emitAll emits a whole output slice; an output that is only held keeps
// the slice itself.
func (nd *node) emitAll(recs []data.Record) {
	if nd.next == nil && nd.sink == nil && nd.keep {
		nd.out = recs
		return
	}
	for _, rec := range recs {
		nd.emit(rec)
	}
}

// head runs a chain's head operator over its whole-slice inputs; its
// output goes through its emit.
func (r *run) head(nd *node, tagged map[string][]data.Record) error {
	v, in := nd.v, r.in
	switch op := v.Op.(type) {
	case *dataflow.CreateOp:
		recs, ok := in.Created[v.ID]
		if !ok {
			recs = op.Records
		}
		nd.emitAll(recs)
		return nil

	case *dataflow.ReadOp:
		open, ok := in.Read[v.ID]
		if !ok {
			return fmt.Errorf("no reader provided")
		}
		it, err := open()
		if err != nil {
			return err
		}
		defer it.Close()
		if recs, ok := dataflow.Held(it); ok {
			if len(recs) > 0 { // an empty read holds nil, as a streamed one does
				nd.emitAll(recs)
			}
			return nil
		}
		for r.err == nil {
			rec, ok, err := it.Next()
			if err != nil || !ok {
				return err
			}
			nd.emit(rec)
		}
		return nil

	case *dataflow.ParDoOp:
		sides := sideMap(in.Sides[v.ID])
		if bf, ok := op.Fn.(dataflow.BundleDoFn); ok {
			return bf.ProcessBundle(tagged[""], sides, nd.emit)
		}
		for _, rec := range tagged[""] {
			if err := op.Fn.Process(rec, sides, nd.emit); err != nil {
				return err
			}
			if r.err != nil {
				return nil
			}
		}
		return nil

	case *dataflow.MultiOp:
		return op.Fn.ProcessPartition(tagged, nd.emit)

	case *dataflow.CombineOp:
		// Combines normally run on the receiving side; interpreting one
		// here (the Spark-like reduce path) merges the map-side
		// accumulators and folds the materialized partition directly.
		t := NewAccTable(op.Fn, op.Global)
		for _, a := range in.Accs[v.ID] {
			t.MergeAcc(a.Key, a.Value)
		}
		for _, rec := range tagged[""] {
			t.AddRecord(rec)
		}
		nd.emitAll(t.Extract())
		return nil

	default:
		return fmt.Errorf("unknown operator payload %T", v.Op)
	}
}
