package exec

import (
	"cmp"
	"slices"

	"pado/internal/data"
	"pado/internal/dataflow"
)

// AccTable is a keyed accumulator table for a CombineFn. It is the
// building block of both regular combining and the paper's partial
// aggregation (§3.2.7): transient executors fold task outputs into
// accumulator tables before pushing, and reserved executors merge pushed
// accumulator tables into their own on the fly.
type AccTable struct {
	fn     dataflow.CombineFn
	global bool
	// keyed accumulators; for global combines the single accumulator
	// lives under the nil-key sentinel.
	m     map[any]any
	keys  []any // insertion order for deterministic extraction
	dirty bool  // global accumulator initialized
	acc   any   // global accumulator
}

// NewAccTable returns an empty table for fn.
func NewAccTable(fn dataflow.CombineFn, global bool) *AccTable {
	return &AccTable{fn: fn, global: global, m: make(map[any]any)}
}

// Len returns the number of keys (1 or 0 for global tables).
func (t *AccTable) Len() int {
	if t.global {
		if t.dirty {
			return 1
		}
		return 0
	}
	return len(t.m)
}

// AddRecord folds one input record into the table.
func (t *AccTable) AddRecord(r data.Record) {
	if t.global {
		if !t.dirty {
			t.acc = t.fn.CreateAccumulator()
			t.dirty = true
		}
		t.acc = t.fn.AddInput(t.acc, r)
		return
	}
	acc, ok := t.m[r.Key]
	if !ok {
		acc = t.fn.CreateAccumulator()
		t.keys = append(t.keys, r.Key)
	}
	t.m[r.Key] = t.fn.AddInput(acc, r)
}

// MergeAcc merges an externally produced accumulator for key into the
// table. For global tables key is ignored.
func (t *AccTable) MergeAcc(key, acc any) {
	if t.global {
		if !t.dirty {
			t.acc = acc
			t.dirty = true
			return
		}
		t.acc = t.fn.MergeAccumulators(t.acc, acc)
		return
	}
	cur, ok := t.m[key]
	if !ok {
		t.m[key] = acc
		t.keys = append(t.keys, key)
		return
	}
	t.m[key] = t.fn.MergeAccumulators(cur, acc)
}

// AccRecords returns the table contents as (key, accumulator) records,
// the wire form of partial aggregation, in insertion order.
func (t *AccTable) AccRecords() []data.Record {
	if t.global {
		if !t.dirty {
			return nil
		}
		return []data.Record{{Key: nil, Value: t.acc}}
	}
	out := make([]data.Record, 0, len(t.keys))
	for _, k := range t.keys {
		out = append(out, data.Record{Key: k, Value: t.m[k]})
	}
	return out
}

// Extract finalizes the table into output records. Keyed output is
// sorted by key hash (then textual order for equal hashes) so extraction
// order is deterministic regardless of arrival order.
func (t *AccTable) Extract() []data.Record {
	if t.global {
		if !t.dirty {
			return nil
		}
		return []data.Record{t.fn.ExtractOutput(nil, t.acc)}
	}
	// Hash each key once; the sort compares stored hashes.
	type hashed struct {
		h uint64
		k any
	}
	keys := make([]hashed, len(t.keys))
	for i, k := range t.keys {
		keys[i] = hashed{data.HashKey(k), k}
	}
	slices.SortFunc(keys, func(a, b hashed) int {
		switch {
		case a.h != b.h:
			return cmp.Compare(a.h, b.h)
		case lessAny(a.k, b.k):
			return -1
		case lessAny(b.k, a.k):
			return 1
		}
		return 0
	})
	out := make([]data.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.fn.ExtractOutput(k.k, t.m[k.k]))
	}
	return out
}

func lessAny(a, b any) bool {
	switch av := a.(type) {
	case string:
		if bv, ok := b.(string); ok {
			return av < bv
		}
	case int64:
		if bv, ok := b.(int64); ok {
			return av < bv
		}
	case int:
		if bv, ok := b.(int); ok {
			return av < bv
		}
	case float64:
		if bv, ok := b.(float64); ok {
			return av < bv
		}
	}
	return false
}
