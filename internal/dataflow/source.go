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
	// Open returns an iterator over one partition.
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

// ReadAll returns the records of one partition of src. A FuncSource's
// generated slice is returned as it is; any other source is iterated.
func ReadAll(src Source, part int) ([]data.Record, error) {
	if fs, ok := src.(*FuncSource); ok {
		return fs.Gen(part), nil
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
// generator function, standing in for large external datasets without
// materializing them.
type FuncSource struct {
	Partitions int
	// Gen returns the records of one partition. It must be
	// deterministic: re-reads after evictions must see identical data.
	Gen func(partition int) []data.Record
	// Fingerprint, if set, identifies one partition's content without
	// generating it (see FingerprintedSource). It must change whenever
	// Gen's output for that partition changes.
	Fingerprint func(partition int) string
}

// NumPartitions implements Source.
func (s *FuncSource) NumPartitions() int { return s.Partitions }

// Open implements Source.
func (s *FuncSource) Open(p int) (Iterator, error) {
	return &sliceIter{recs: s.Gen(p)}, nil
}

// PartitionFingerprint implements FingerprintedSource. Sources without a
// Fingerprint function report "" (unknown).
func (s *FuncSource) PartitionFingerprint(p int) string {
	if s.Fingerprint == nil {
		return ""
	}
	return s.Fingerprint(p)
}
