package dataflow

import (
	"math"

	"pado/internal/data"
)

// Emit receives output records from a user function.
type Emit func(data.Record)

// SideValues gives a DoFn access to its materialized broadcast inputs.
type SideValues interface {
	// Get returns the full contents of the named side input.
	Get(name string) []data.Record
}

// DoFn is the per-record processing function of ParDo.
//
// Engines hand functions their inputs uncopied: a record, a bundle, a
// tagged partition or a side input may be an executor's cached input or
// a fetched block that other tasks read too. DoFn, BundleDoFn and
// MultiDoFn must therefore not modify their input slices or the values
// the records hold; emit new records instead.
type DoFn interface {
	// Process handles one input record and may emit any number of
	// output records.
	Process(r data.Record, sides SideValues, emit Emit) error
}

// DoFunc adapts a plain function to DoFn.
type DoFunc func(r data.Record, sides SideValues, emit Emit) error

// Process implements DoFn.
func (f DoFunc) Process(r data.Record, sides SideValues, emit Emit) error {
	return f(r, sides, emit)
}

// BundleDoFn is an optional refinement of DoFn: when a ParDo's function
// also implements BundleDoFn, engines call ProcessBundle once per task
// partition instead of Process per record. This is how per-partition
// aggregation (e.g. one gradient per training partition, as in MLlib's
// treeAggregate) is expressed. recs must not be modified (see DoFn).
type BundleDoFn interface {
	ProcessBundle(recs []data.Record, sides SideValues, emit Emit) error
}

// MapFunc adapts a 1:1 transformation to DoFn.
func MapFunc(f func(data.Record) data.Record) DoFn {
	return DoFunc(func(r data.Record, _ SideValues, emit Emit) error {
		emit(f(r))
		return nil
	})
}

// MultiDoFn consumes aligned partitions of several one-to-one inputs.
// Inputs arrive tagged: the main input under "" and extras under "in1",
// "in2", ... in declaration order. The inputs must not be modified (see
// DoFn).
type MultiDoFn interface {
	ProcessPartition(inputs map[string][]data.Record, emit Emit) error
}

// MultiDoFunc adapts a plain function to MultiDoFn.
type MultiDoFunc func(inputs map[string][]data.Record, emit Emit) error

// ProcessPartition implements MultiDoFn.
func (f MultiDoFunc) ProcessPartition(inputs map[string][]data.Record, emit Emit) error {
	return f(inputs, emit)
}

// CombineFn is a commutative, associative aggregation. The decomposition
// into accumulator operations is what enables the paper's partial
// aggregation optimization (§3.2.7): transient executors pre-merge the
// outputs of their local tasks, and reserved executors merge pushed
// accumulators on the fly, so only compact accumulators cross the network
// and reserved memory holds one accumulator per key.
type CombineFn interface {
	CreateAccumulator() any
	// AddInput folds one record's value into the accumulator and
	// returns the updated accumulator.
	AddInput(acc any, r data.Record) any
	// MergeAccumulators combines two accumulators; it may reuse either.
	MergeAccumulators(a, b any) any
	// ExtractOutput converts the final accumulator for key into the
	// output record. key is nil for global combines.
	ExtractOutput(key any, acc any) data.Record
}

// SumInt64Fn sums int64 values per key.
type SumInt64Fn struct{}

// CreateAccumulator implements CombineFn.
func (SumInt64Fn) CreateAccumulator() any { return int64(0) }

// AddInput implements CombineFn.
func (SumInt64Fn) AddInput(acc any, r data.Record) any { return acc.(int64) + r.Value.(int64) }

// MergeAccumulators implements CombineFn.
func (SumInt64Fn) MergeAccumulators(a, b any) any { return a.(int64) + b.(int64) }

// ExtractOutput implements CombineFn.
func (SumInt64Fn) ExtractOutput(key, acc any) data.Record {
	return data.Record{Key: key, Value: acc.(int64)}
}

// SumFloat64sFn sums float64 vectors elementwise (e.g. gradient
// aggregation). Accumulators are reused destructively.
//
// The sum is exact, so it is associative and commutative bit for bit: any
// split of the inputs into partial sums, merged in any order, gives the
// same bits. AddInput rounds each input element to the nearest multiple
// of the quantum 2⁻³⁰ (ties to even); a sum of such multiples is then
// exact as long as every partial sum stays below the bound 2²³ in
// magnitude, since a multiple of 2⁻³⁰ under 2²³ has at most 53
// significant bits. Each input element is accurate to 2⁻³¹, so one below
// 2⁻³¹ in magnitude counts as 0.
type SumFloat64sFn struct{}

// quantize rounds v to the nearest multiple of 2⁻³⁰, ties to even.
func quantize(v float64) float64 { return math.RoundToEven(v*0x1p30) * 0x1p-30 }

// CreateAccumulator implements CombineFn.
func (SumFloat64sFn) CreateAccumulator() any { return []float64(nil) }

// AddInput implements CombineFn.
func (SumFloat64sFn) AddInput(acc any, r data.Record) any {
	src := r.Value.([]float64)
	dst := growVec(acc.([]float64), len(src))
	for i, v := range src {
		dst[i] += quantize(v)
	}
	return dst
}

// MergeAccumulators implements CombineFn.
func (SumFloat64sFn) MergeAccumulators(a, b any) any {
	src := b.([]float64)
	dst := growVec(a.([]float64), len(src))
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// ExtractOutput implements CombineFn.
func (SumFloat64sFn) ExtractOutput(key, acc any) data.Record {
	v := acc.([]float64)
	if v == nil {
		v = []float64{}
	}
	return data.Record{Key: key, Value: v}
}

// growVec returns dst with at least n elements; the missing entries are
// zero.
func growVec(dst []float64, n int) []float64 {
	if len(dst) >= n {
		return dst
	}
	grown := make([]float64, n)
	copy(grown, dst)
	return grown
}

// GroupFn collects all values per key into a slice, i.e. a GroupByKey
// expressed as a CombineFn whose accumulator is the value list.
type GroupFn struct{}

// CreateAccumulator implements CombineFn.
func (GroupFn) CreateAccumulator() any { return []any(nil) }

// AddInput implements CombineFn.
func (GroupFn) AddInput(acc any, r data.Record) any { return append(acc.([]any), r.Value) }

// MergeAccumulators implements CombineFn.
func (GroupFn) MergeAccumulators(a, b any) any { return append(a.([]any), b.([]any)...) }

// ExtractOutput implements CombineFn.
func (GroupFn) ExtractOutput(key, acc any) data.Record {
	return data.Record{Key: key, Value: acc}
}
