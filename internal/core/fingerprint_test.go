package core

import (
	"fmt"
	"testing"

	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/workloads"
)

// fpPipeline is a small MR-shaped pipeline over a fingerprinted source.
// salt perturbs the fingerprint of partition saltPart (-1 = none).
func fpPipeline(name string, parts int, saltPart int, salt string) *dataflow.Pipeline {
	p := dataflow.NewPipeline()
	kv := workloads.CountCoder
	src := &dataflow.FuncSource{
		Partitions: parts,
		Gen: func(pt int) (int, func() data.Record) {
			return 1, func() data.Record { return data.KV(fmt.Sprintf("k%d", pt), int64(pt)) }
		},
		Fingerprint: func(pt int) string {
			if pt == saltPart {
				return fmt.Sprintf("part-%d-%s", pt, salt)
			}
			return fmt.Sprintf("part-%d", pt)
		},
	}
	read := p.Read("read", src, kv)
	mapped := read.ParDo(name, dataflow.MapFunc(func(r data.Record) data.Record { return r }), kv)
	mapped.CombinePerKey("sum", dataflow.SumInt64Fn{}, kv)
	return p
}

func compileFP(t *testing.T, p *dataflow.Pipeline) *Plan {
	t.Helper()
	plan, err := Compile(p.Graph(), PlanConfig{ReduceParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCacheKeysDeterministic: compiling the same pipeline twice yields
// identical stage cache keys and task keys — across independent graph
// constructions, not just repeated reads of one plan.
func TestCacheKeysDeterministic(t *testing.T) {
	a := compileFP(t, fpPipeline("map", 4, -1, ""))
	b := compileFP(t, fpPipeline("map", 4, -1, ""))
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(a.Stages), len(b.Stages))
	}
	for i := range a.Stages {
		if a.Stages[i].CacheKey == "" {
			t.Fatalf("stage %d has no cache key despite fingerprinted source", i)
		}
		if a.Stages[i].CacheKey != b.Stages[i].CacheKey {
			t.Errorf("stage %d cache key not deterministic", i)
		}
		if fmt.Sprint(a.Stages[i].TaskKeys) != fmt.Sprint(b.Stages[i].TaskKeys) {
			t.Errorf("stage %d task keys not deterministic", i)
		}
	}
}

// TestCacheKeysInvalidation: changing one source partition's fingerprint
// changes the stage key (it covers all partitions) but only that task's
// key; renaming an operator changes the stage key too.
func TestCacheKeysInvalidation(t *testing.T) {
	base := compileFP(t, fpPipeline("map", 4, -1, ""))
	delta := compileFP(t, fpPipeline("map", 4, 2, "changed"))
	renamed := compileFP(t, fpPipeline("map-v2", 4, -1, ""))

	if base.Stages[0].CacheKey == delta.Stages[0].CacheKey {
		t.Error("source change did not invalidate the stage cache key")
	}
	if base.Stages[0].CacheKey == renamed.Stages[0].CacheKey {
		t.Error("operator rename did not invalidate the stage cache key")
	}
	if delta.Stages[0].CacheKey == renamed.Stages[0].CacheKey {
		t.Error("distinct invalidations collided")
	}

	bk, dk := base.Stages[0].TaskKeys, delta.Stages[0].TaskKeys
	if bk == nil || dk == nil {
		t.Fatal("source-only stage got no task keys")
	}
	for frag := range bk {
		for task := range bk[frag] {
			same := bk[frag][task] == dk[frag][task]
			if task == 2 && same {
				t.Errorf("task %d key unchanged despite its partition changing", task)
			}
			if task != 2 && !same {
				t.Errorf("task %d key changed though its partition did not", task)
			}
		}
	}
}

// TestCacheKeysAbsentWithoutFingerprints: a source that cannot be
// fingerprinted disables caching for its whole downstream cone.
func TestCacheKeysAbsentWithoutFingerprints(t *testing.T) {
	p := dataflow.NewPipeline()
	kv := workloads.CountCoder
	src := &dataflow.FuncSource{
		Partitions: 4,
		Gen: func(pt int) (int, func() data.Record) {
			return 1, func() data.Record { return data.KV(fmt.Sprintf("k%d", pt), int64(pt)) }
		},
	}
	p.Read("read", src, kv).CombinePerKey("sum", dataflow.SumInt64Fn{}, kv)
	plan := compileFP(t, p)
	for _, s := range plan.Stages {
		if s.CacheKey != "" {
			t.Errorf("stage %d has cache key %q despite unfingerprinted source", s.ID, s.CacheKey)
		}
		if s.TaskKeys != nil {
			t.Errorf("stage %d has task keys despite unfingerprinted source", s.ID)
		}
	}
}
