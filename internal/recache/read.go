package recache

import (
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/obs"
)

// Read opens partition part of the ReadOp vertex v for a task. It is the
// one source-read path of both engines. Reading external input costs the
// op's OpCost per record, billed to charge (nil: free), and only actual
// reads pay it:
//   - With c nil (the input is not cached) the partition streams from its
//     source record by record and is never held; the charge is paid when
//     the stream ends, before the operators fused behind the read are
//     charged for what it fed them.
//   - With c set, a hit iterates the resident records uncharged. A miss
//     reads the partition into a slice of exactly its size, pays the
//     charge and caches the slice, once among concurrent callers of the
//     same key (Load). filled reports whether this call did that read.
//
// A cached lookup is reported on tr as ev, as in Load.
func (c *Cache) Read(v *dag.Vertex, part int, tr *obs.Buf, ev obs.Event, charge func(tokens int) error) (it dataflow.Iterator, filled bool, err error) {
	src := v.Op.(*dataflow.ReadOp).Source
	cost := dataflow.OpCost(v)
	if c == nil {
		stream, err := src.Open(part)
		if err != nil {
			return nil, false, err
		}
		return &chargedIter{Iterator: stream, cost: cost, charge: charge}, false, nil
	}
	recs, err := c.Load(Key{Vertex: v.ID, Partition: part}, tr, ev, func() ([]data.Record, error) {
		recs, err := dataflow.ReadAll(src, part)
		if err != nil {
			return nil, err
		}
		if charge != nil {
			if err := charge(len(recs) * cost); err != nil {
				return nil, err
			}
		}
		filled = true
		return recs, nil
	})
	if err != nil {
		return nil, false, err
	}
	it, err = (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
	return it, filled, err
}

// chargedIter streams an uncached read and pays its charge at the end of
// the stream.
type chargedIter struct {
	dataflow.Iterator
	n      int
	cost   int
	charge func(tokens int) error
}

func (it *chargedIter) Next() (data.Record, bool, error) {
	rec, ok, err := it.Iterator.Next()
	if ok {
		it.n++
		return rec, true, nil
	}
	if err == nil && it.charge != nil {
		err = it.charge(it.n * it.cost)
		it.charge = nil
	}
	return rec, false, err
}
