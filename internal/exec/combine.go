package exec

import (
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
)

// Combiner returns the combine that a producing task may fold its output
// into before the output crosses a stage boundary, or nil when the output
// must travel raw. The fold applies when id is a CombineOp with an
// accumulator coder whose one input edge is its main input (tag "") and is
// shuffled: many-to-many for a keyed combine, many-to-one for a global one.
// The consumer then receives nothing but accumulators and merges them.
// Pado's transient tasks (partial aggregation, §3.2.7) and Spark-like map
// tasks (map-side combine) decide with this one rule, so the engines fold
// the same data the same way and differ only in what happens across tasks.
func Combiner(g *dag.Graph, id dag.VertexID) *dataflow.CombineOp {
	op, _ := g.Vertex(id).Op.(*dataflow.CombineOp)
	if op == nil || op.AccCoder == nil {
		return nil
	}
	in := g.InEdges(id)
	want := dag.ManyToMany
	if op.Global {
		want = dag.ManyToOne
	}
	if len(in) != 1 || in[0].Tag != "" || in[0].Dep != want {
		return nil
	}
	return op
}

// FoldSink returns one empty accumulator table per consumer partition of
// n and the sink that folds one record of a task's output for op into
// them: a keyed combine routes each record by data.Partition, as the hash
// shuffle does, and a global combine folds everything into table 0. Both
// engines hand the sink to Run for the output that feeds op, so records
// reach the tables in emit order without being held. The fold is
// uncharged: both engines bill the combine's CPU on the merging side, per
// accumulator.
func FoldSink(op *dataflow.CombineOp, n int) ([]*AccTable, func(data.Record)) {
	tables := make([]*AccTable, n)
	for i := range tables {
		tables[i] = NewAccTable(op.Fn, op.Global)
	}
	if op.Global {
		return tables, tables[0].AddRecord
	}
	return tables, func(r data.Record) { tables[data.Partition(r.Key, n)].AddRecord(r) }
}

// FoldPartitions folds a held output through FoldSink.
func FoldPartitions(op *dataflow.CombineOp, n int, recs []data.Record) []*AccTable {
	tables, fold := FoldSink(op, n)
	for _, r := range recs {
		fold(r)
	}
	return tables
}

// EncodeAccs encodes each table's accumulator records with coder, in the
// table's insertion order: for one task's tables every payload is a pure
// function of the task's input.
func EncodeAccs(coder data.Coder, tables []*AccTable) ([][]byte, error) {
	payloads := make([][]byte, len(tables))
	for i, t := range tables {
		payload, err := data.EncodeAll(coder, t.AccRecords())
		if err != nil {
			return nil, err
		}
		payloads[i] = payload
	}
	return payloads, nil
}
