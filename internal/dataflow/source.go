package dataflow

import (
	"pado/internal/data"
)

// Source is a partitioned external input (the stand-in for S3/HDFS reads
// in the paper's evaluation). Sources must be deterministic and safe for
// concurrent Open calls: evicted read tasks are re-run from the source,
// which is assumed stable (§2.2).
type Source interface {
	// NumPartitions returns the number of input partitions; it fixes
	// the parallelism of the reading operator.
	NumPartitions() int
	// Open returns an iterator over one partition. Readers consume it
	// record by record and hold the records only when they cache them,
	// so a source should produce each record as Next asks for it.
	Open(partition int) (Iterator, error)
}

// Iterator yields records of one source partition.
type Iterator interface {
	// Next returns the next record, or ok=false at the end.
	Next() (rec data.Record, ok bool, err error)
	Close() error
}

// Ops attached as vertex payloads. The engines type-switch on these.

// CreateOp is an in-memory source (ISCREATED).
type CreateOp struct {
	Records []data.Record
	Coder   data.Coder
}

// ReadOp is a storage-backed source (ISREAD).
type ReadOp struct {
	Source Source
	Coder  data.Coder
	// Cached asks executors to cache the partition's records in memory
	// so re-reads by later stages of iterative jobs hit the cache
	// (paper §3.2.7).
	Cached bool
	// Cost is the CPU tokens charged per record read (0 means 1). It
	// models the real expense of pulling input from external storage,
	// which recomputation-based recovery pays again on every cascade
	// back to the source.
	Cost int
}

// ParDoOp is a one-to-one operator, possibly with broadcast side inputs.
type ParDoOp struct {
	Fn         DoFn
	Sides      []SideInput
	OutCoder   data.Coder
	CacheInput bool
	// Cost is the CPU tokens charged per input record (0 means 1).
	Cost int
}

// CombineOp is a keyed (many-to-many) or global (many-to-one) aggregation.
type CombineOp struct {
	Fn       CombineFn
	InCoder  data.Coder
	OutCoder data.Coder
	Global   bool
	// AccCoder encodes (key, accumulator) records. When set, the Pado
	// runtime ships partially aggregated accumulators across the
	// transient-to-reserved boundary instead of raw records (§3.2.7).
	AccCoder data.Coder
	// Cost is the CPU tokens charged per record (0 means 1).
	Cost int
}

// MultiOp consumes aligned partitions of several one-to-one inputs.
type MultiOp struct {
	Fn        MultiDoFn
	OutCoder  data.Coder
	NumInputs int
}

// SliceSource is an in-memory Source over pre-partitioned records, used
// heavily in tests.
type SliceSource struct {
	Parts [][]data.Record
}

// NumPartitions implements Source.
func (s *SliceSource) NumPartitions() int { return len(s.Parts) }

// Open implements Source.
func (s *SliceSource) Open(p int) (Iterator, error) {
	return &sliceIter{recs: s.Parts[p]}, nil
}

type sliceIter struct {
	recs []data.Record
	i    int
}

func (it *sliceIter) Next() (data.Record, bool, error) {
	if it.i >= len(it.recs) {
		return data.Record{}, false, nil
	}
	r := it.recs[it.i]
	it.i++
	return r, true, nil
}

func (it *sliceIter) Close() error { return nil }

// Held returns the records it has not yet yielded when it iterates a slice
// already in memory (a SliceSource partition, or a cached read), so a
// reader that keeps them all can alias that slice instead of copying it
// record by record. ok is false for an iterator that produces its records.
func Held(it Iterator) (recs []data.Record, ok bool) {
	if s, ok := it.(*sliceIter); ok {
		return s.recs[s.i:], true
	}
	return nil, false
}

// ReadAll returns the records of one partition of src. A FuncSource's
// partition is generated into a slice of exactly its size; any other
// source is iterated. Only reads that are held (the input cache) take
// this path: an uncached read streams from Open.
func ReadAll(src Source, part int) ([]data.Record, error) {
	if fs, ok := src.(*FuncSource); ok {
		n, next := fs.Gen(part)
		recs := make([]data.Record, n)
		for i := range recs {
			recs[i] = next()
		}
		return recs, nil
	}
	it, err := src.Open(part)
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
}

// FingerprintedSource is a Source whose partition contents can be
// identified without reading them. The compiler folds partition
// fingerprints into stage cache keys, which is what lets a rerun prove
// "this input is the same as last time" and skip the stages computed
// from it (incremental re-execution).
type FingerprintedSource interface {
	Source
	// PartitionFingerprint returns a stable identifier for the current
	// content of one partition — same content, same fingerprint; any
	// content change, a different fingerprint. "" means unknown, which
	// disables caching for everything downstream of this source.
	PartitionFingerprint(p int) string
}

// FuncSource generates partition contents on demand from a deterministic
// generator, standing in for large external datasets without holding
// them: Open streams a partition record by record as its reader asks for
// them, so an uncached read never builds the partition as a slice.
type FuncSource struct {
	Partitions int
	// Gen starts one partition's generator. It returns the partition's
	// record count n and a function that yields its records in order, one
	// per call; readers call it exactly n times. The sequence must be
	// deterministic: re-reads after evictions must see identical data.
	// Each call of Gen starts an independent generator, so concurrent
	// reads of one partition do not share state.
	Gen func(partition int) (n int, next func() data.Record)
	// Fingerprint, if set, identifies one partition's content without
	// generating it (see FingerprintedSource). It must change whenever
	// Gen's output for that partition changes.
	Fingerprint func(partition int) string
}

// NumPartitions implements Source.
func (s *FuncSource) NumPartitions() int { return s.Partitions }

// Open implements Source. The iterator generates each record when Next
// asks for it.
func (s *FuncSource) Open(p int) (Iterator, error) {
	n, next := s.Gen(p)
	return &funcIter{left: n, next: next}, nil
}

type funcIter struct {
	left int
	next func() data.Record
}

func (it *funcIter) Next() (data.Record, bool, error) {
	if it.left <= 0 {
		return data.Record{}, false, nil
	}
	it.left--
	return it.next(), true, nil
}

func (it *funcIter) Close() error { return nil }

// PartitionFingerprint implements FingerprintedSource. Sources without a
// Fingerprint function report "" (unknown).
func (s *FuncSource) PartitionFingerprint(p int) string {
	if s.Fingerprint == nil {
		return ""
	}
	return s.Fingerprint(p)
}
