package exec

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
)

// foldChain is read → split → scale → combine: the shape of a transient
// fragment whose stage root takes folded input.
type foldChain struct {
	g                  *dag.Graph
	read, split, scale dag.VertexID
	op                 *dataflow.CombineOp
}

func newFoldChain(t testing.TB) foldChain {
	p := dataflow.NewPipeline()
	read := p.Read("read", &dataflow.SliceSource{Parts: [][]data.Record{{}}}, kv)
	// split emits 0, 1 or 2 records per input, so the two fused
	// operators see different counts.
	split := read.ParDo("split", dataflow.DoFunc(func(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
		v := r.Value.(int64)
		for i := int64(0); i < (v%3+3)%3; i++ {
			emit(data.KV(fmt.Sprintf("%s.%d", r.Key, i), v+i))
		}
		return nil
	}), kv, dataflow.WithCost(2))
	scale := split.ParDo("scale", dataflow.MapFunc(func(r data.Record) data.Record {
		return data.KV(r.Key, r.Value.(int64)*3)
	}), kv, dataflow.WithCost(5))
	comb := scale.CombinePerKey("sum", dataflow.SumInt64Fn{}, kv, dataflow.WithAccumulatorCoder(kv))
	g := p.Graph()
	op := Combiner(g, comb.VertexID())
	if op == nil {
		t.Fatal("the chain's combine must take folded input")
	}
	return foldChain{g: g, read: read.VertexID(), split: split.VertexID(), scale: scale.VertexID(), op: op}
}

func (c foldChain) ops() []dag.VertexID { return []dag.VertexID{c.read, c.split, c.scale} }

// inputs reads recs and records every Throttle charge in charges.
func (c foldChain) inputs(recs []data.Record, charges *[]int) Inputs {
	return Inputs{
		Read: map[dag.VertexID]func() (dataflow.Iterator, error){
			c.read: func() (dataflow.Iterator, error) {
				return (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
			},
		},
		Throttle: func(n int) error { *charges = append(*charges, n); return nil },
	}
}

// TestFusedFoldMatchesCollectAll is the fusion contract. A chain run with a
// fold sink on its boundary (the path both engines take) must produce the
// same accumulator payloads, byte for byte, as FoldPartitions over
// RunFragment's collect-all output, charge the throttle the same sequence
// of counts, and hold nothing. RunFragment must still return every
// operator's output, the read op's included.
func TestFusedFoldMatchesCollectAll(t *testing.T) {
	const nParts = 3
	c := newFoldChain(t)
	prop := func(keys []uint8, vals []int64) bool {
		recs := make([]data.Record, min(len(keys), len(vals)))
		for i := range recs {
			recs[i] = data.KV(fmt.Sprintf("k%d", keys[i]%7), vals[i]%1000)
		}

		var fusedCharges, allCharges []int
		tables, fold := FoldSink(c.op, nParts)
		held, err := Run(c.g, c.ops(), c.inputs(recs, &fusedCharges),
			Outputs{Sinks: map[dag.VertexID]func(data.Record){c.scale: fold}})
		if err != nil {
			t.Fatal(err)
		}
		all, err := RunFragment(c.g, c.ops(), c.inputs(recs, &allCharges))
		if err != nil {
			t.Fatal(err)
		}

		got, err := EncodeAccs(c.op.AccCoder, tables)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeAccs(c.op.AccCoder, FoldPartitions(c.op, nParts, all[c.scale]))
		if err != nil {
			t.Fatal(err)
		}
		for p := range want {
			if !bytes.Equal(got[p], want[p]) {
				t.Logf("partition %d: fused payload %x, collect-all %x", p, got[p], want[p])
				return false
			}
		}
		if !reflect.DeepEqual(fusedCharges, allCharges) {
			t.Logf("fused charges %v, collect-all %v", fusedCharges, allCharges)
			return false
		}
		// read is charged by the executors; split and scale by count × cost.
		var wantCharges []int
		for _, n := range []int{2 * len(recs), 5 * len(all[c.split])} {
			if n > 0 {
				wantCharges = append(wantCharges, n)
			}
		}
		if !reflect.DeepEqual(allCharges, wantCharges) {
			t.Logf("charges %v, want %v", allCharges, wantCharges)
			return false
		}
		if len(held) != 0 {
			t.Logf("fused run held %d outputs", len(held))
			return false
		}
		if len(all) != 3 || !reflect.DeepEqual(all[c.read], nilIfEmpty(recs)) {
			t.Logf("collect-all returned %d outputs, read %v", len(all), all[c.read])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func nilIfEmpty(recs []data.Record) []data.Record {
	if len(recs) == 0 {
		return nil
	}
	return recs
}

func TestRunFusedErrorStopsChain(t *testing.T) {
	p := dataflow.NewPipeline()
	src := &dataflow.SliceSource{Parts: [][]data.Record{{
		data.KV("a", int64(1)), data.KV("b", int64(2)), data.KV("c", int64(3)),
	}}}
	read := p.Read("read", src, kv)
	userErr := errors.New("user fn failure")
	bad := read.ParDo("bad", dataflow.DoFunc(func(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
		if r.Key == "b" {
			return userErr
		}
		emit(r)
		return nil
	}), kv)
	var sunk []data.Record
	in := Inputs{Read: map[dag.VertexID]func() (dataflow.Iterator, error){
		read.VertexID(): func() (dataflow.Iterator, error) { return src.Open(0) },
	}}
	_, err := Run(p.Graph(), []dag.VertexID{read.VertexID(), bad.VertexID()}, in,
		Outputs{Sinks: map[dag.VertexID]func(data.Record){bad.VertexID(): func(r data.Record) { sunk = append(sunk, r) }}})
	if !errors.Is(err, userErr) {
		t.Fatalf("err = %v, want the fused operator's error", err)
	}
	if len(sunk) != 1 {
		t.Errorf("sink got %v; records after the failure must be dropped", sunk)
	}
}

func TestRunFusedSideInputs(t *testing.T) {
	p := dataflow.NewPipeline()
	src := &dataflow.SliceSource{Parts: [][]data.Record{{data.KV("x", int64(10)), data.KV("y", int64(20))}}}
	model := p.Create("model", []data.Record{{Value: int64(5)}}, data.KVCoder{K: data.NilCoder, V: data.Int64Coder})
	read := p.Read("read", src, kv)
	add := read.ParDo("add-model", dataflow.DoFunc(
		func(r data.Record, sides dataflow.SideValues, emit dataflow.Emit) error {
			emit(data.KV(r.Key, r.Value.(int64)+sides.Get("m")[0].Value.(int64)))
			return nil
		}), kv, dataflow.WithSide(dataflow.SideInput{Name: "m", From: model}))
	in := Inputs{
		Read: map[dag.VertexID]func() (dataflow.Iterator, error){
			read.VertexID(): func() (dataflow.Iterator, error) { return src.Open(0) },
		},
		Sides: map[dag.VertexID]map[string][]data.Record{add.VertexID(): {"m": {{Value: int64(5)}}}},
	}
	outs, err := Run(p.Graph(), []dag.VertexID{read.VertexID(), add.VertexID()}, in,
		Outputs{Keep: []dag.VertexID{add.VertexID()}})
	if err != nil {
		t.Fatal(err)
	}
	want := []data.Record{data.KV("x", int64(15)), data.KV("y", int64(25))}
	if !reflect.DeepEqual(outs[add.VertexID()], want) {
		t.Errorf("got %v, want %v", outs[add.VertexID()], want)
	}
	if _, held := outs[read.VertexID()]; held {
		t.Error("the read feeds only a fused ParDo and must not be held")
	}
}

// TestRunHoldsForUnfusedConsumers: a producer with two consumers, or one
// whose consumer takes bundles, is held, and its consumers read the held
// slice. A read whose records are already in memory (as a cached read's
// are) is held as that slice, not copied.
func TestRunHoldsForUnfusedConsumers(t *testing.T) {
	p := dataflow.NewPipeline()
	src := &dataflow.SliceSource{Parts: [][]data.Record{{data.KV("a", int64(1)), data.KV("b", int64(2))}}}
	read := p.Read("read", src, kv)
	double := read.ParDo("double", dataflow.MapFunc(func(r data.Record) data.Record {
		return data.KV(r.Key, r.Value.(int64)*2)
	}), kv)
	sum := read.ParDo("sum", bundleSumFn{}, kv)
	in := Inputs{Read: map[dag.VertexID]func() (dataflow.Iterator, error){
		read.VertexID(): func() (dataflow.Iterator, error) { return src.Open(0) },
	}}
	outs, err := Run(p.Graph(), []dag.VertexID{read.VertexID(), double.VertexID(), sum.VertexID()}, in,
		Outputs{Keep: []dag.VertexID{double.VertexID(), sum.VertexID()}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs[read.VertexID()], src.Parts[0]) {
		t.Errorf("read held %v, want %v", outs[read.VertexID()], src.Parts[0])
	}
	if got := outs[read.VertexID()]; len(got) == 0 || &got[0] != &src.Parts[0][0] {
		t.Error("the read copied its in-memory partition instead of aliasing it")
	}
	if want := []data.Record{data.KV("a", int64(2)), data.KV("b", int64(4))}; !reflect.DeepEqual(outs[double.VertexID()], want) {
		t.Errorf("double = %v, want %v", outs[double.VertexID()], want)
	}
	if want := []data.Record{{Value: int64(3)}}; !reflect.DeepEqual(outs[sum.VertexID()], want) {
		t.Errorf("sum = %v, want %v", outs[sum.VertexID()], want)
	}
}
