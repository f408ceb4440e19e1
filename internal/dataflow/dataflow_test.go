package dataflow

import (
	"math"
	"testing"

	"pado/internal/dag"
	"pado/internal/data"
)

var kv = data.KVCoder{K: data.StringCoder, V: data.Int64Coder}

func edgeBetween(g *dag.Graph, from, to dag.VertexID) (dag.Edge, bool) {
	for _, e := range g.InEdges(to) {
		if e.From == from {
			return e, true
		}
	}
	return dag.Edge{}, false
}

func TestTransformEdgeTypes(t *testing.T) {
	p := NewPipeline()
	src := &FuncSource{Partitions: 2, Gen: func(int) (int, func() data.Record) { return 0, nil }}
	read := p.Read("read", src, kv)
	created := p.Create("model", []data.Record{{Value: int64(1)}}, kv)
	mapped := read.ParDo("map", MapFunc(func(r data.Record) data.Record { return r }), kv,
		WithSide(SideInput{Name: "m", From: created, Cached: true}))
	keyed := mapped.CombinePerKey("reduce", SumInt64Fn{}, kv)
	global := keyed.CombineGlobally("agg", SumInt64Fn{}, kv)
	multi := global.Apply("upd", MultiDoFunc(func(map[string][]data.Record, Emit) error { return nil }), kv, created)

	g := p.Graph()
	if g.Vertex(read.VertexID()).Kind != dag.KindSourceRead {
		t.Error("read kind wrong")
	}
	if g.Vertex(created.VertexID()).Kind != dag.KindSourceCreate {
		t.Error("create kind wrong")
	}

	if e, ok := edgeBetween(g, read.VertexID(), mapped.VertexID()); !ok || e.Dep != dag.OneToOne || e.Tag != "" {
		t.Errorf("read->map edge = %+v", e)
	}
	if e, ok := edgeBetween(g, created.VertexID(), mapped.VertexID()); !ok || e.Dep != dag.OneToMany || e.Tag != "m" {
		t.Errorf("side edge = %+v", e)
	}
	if e, ok := edgeBetween(g, mapped.VertexID(), keyed.VertexID()); !ok || e.Dep != dag.ManyToMany {
		t.Errorf("shuffle edge = %+v", e)
	}
	if e, ok := edgeBetween(g, keyed.VertexID(), global.VertexID()); !ok || e.Dep != dag.ManyToOne {
		t.Errorf("agg edge = %+v", e)
	}
	if e, ok := edgeBetween(g, global.VertexID(), multi.VertexID()); !ok || e.Dep != dag.OneToOne || e.Tag != "" {
		t.Errorf("multi main edge = %+v", e)
	}
	if e, ok := edgeBetween(g, created.VertexID(), multi.VertexID()); !ok || e.Dep != dag.OneToOne || e.Tag != "in1" {
		t.Errorf("multi extra edge = %+v", e)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("built pipeline invalid: %v", err)
	}
}

func TestOptionsSetOpFields(t *testing.T) {
	p := NewPipeline()
	src := &FuncSource{Partitions: 1, Gen: func(int) (int, func() data.Record) { return 0, nil }}
	read := p.Read("read", src, kv).Cached().ReadCost(12)
	rd := p.Graph().Vertex(read.VertexID()).Op.(*ReadOp)
	if !rd.Cached || rd.Cost != 12 {
		t.Errorf("read options not applied: %+v", rd)
	}

	mapped := read.ParDo("m", MapFunc(func(r data.Record) data.Record { return r }), kv,
		WithInputCache(), WithCost(7))
	pd := p.Graph().Vertex(mapped.VertexID()).Op.(*ParDoOp)
	if !pd.CacheInput || pd.Cost != 7 {
		t.Errorf("pardo options not applied: %+v", pd)
	}

	comb := mapped.CombinePerKey("c", SumInt64Fn{}, kv,
		WithAccumulatorCoder(kv), WithCombineCost(3))
	co := p.Graph().Vertex(comb.VertexID()).Op.(*CombineOp)
	if co.AccCoder == nil || co.Cost != 3 || co.Global {
		t.Errorf("combine options not applied: %+v", co)
	}
}

func TestOutputCoderResolution(t *testing.T) {
	p := NewPipeline()
	read := p.Read("r", &FuncSource{Partitions: 1}, kv)
	c, err := OutputCoder(p.Graph().Vertex(read.VertexID()))
	if err != nil || c != data.Coder(kv) {
		t.Errorf("read coder = %v, %v", c, err)
	}
	if OpCost(p.Graph().Vertex(read.VertexID())) != 1 {
		t.Error("default op cost should be 1")
	}
}

func TestSumFns(t *testing.T) {
	var f SumInt64Fn
	acc := f.CreateAccumulator()
	acc = f.AddInput(acc, data.KV("k", int64(3)))
	acc = f.MergeAccumulators(acc, int64(4))
	out := f.ExtractOutput("k", acc)
	if out.Value.(int64) != 7 || out.Key != "k" {
		t.Errorf("SumInt64Fn = %v", out)
	}

	var v SumFloat64sFn
	a := v.CreateAccumulator()
	a = v.AddInput(a, data.Record{Value: []float64{1, 2}})
	a = v.AddInput(a, data.Record{Value: []float64{10, 20}})
	b := v.CreateAccumulator()
	b = v.AddInput(b, data.Record{Value: []float64{100, 200, 300}})
	m := v.MergeAccumulators(a, b).([]float64)
	if len(m) != 3 || m[0] != 111 || m[1] != 222 || m[2] != 300 {
		t.Errorf("SumFloat64sFn merge = %v", m)
	}
	if got := v.ExtractOutput(nil, v.CreateAccumulator()); got.Value.([]float64) == nil {
		t.Error("empty vector extraction should be non-nil slice")
	}
}

// TestQuantizeRoundsToTheQuantum checks that quantize lands on the 2⁻³⁰
// grid within half a quantum, with ties to even.
func TestQuantizeRoundsToTheQuantum(t *testing.T) {
	for _, c := range []struct{ v, want float64 }{
		{0, 0}, {1e-12, 0}, {-1e-12, 0},
		{0x1p-31, 0}, {-0x1p-31, 0}, {3 * 0x1p-31, 0x1p-29}, {5 * 0x1p-31, 0x1p-29},
		{1 + 0x1p-30, 1 + 0x1p-30}, {-3 - 0x1p-30, -3 - 0x1p-30},
	} {
		if got := quantize(c.v); got != c.want {
			t.Errorf("quantize(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	for _, v := range []float64{1.2345678901234, -99999.123456789123, 0x1p21 - 1e-3, 1e9 + 0.3, -5e12 - 0x1p-31} {
		q := quantize(v)
		if n := q * 0x1p30; n != math.Trunc(n) || math.Abs(q-v) > 0x1p-31 {
			t.Errorf("quantize(%v) = %v, not the nearest multiple of 2⁻³⁰", v, q)
		}
	}
}

func TestGroupFn(t *testing.T) {
	var g GroupFn
	acc := g.CreateAccumulator()
	acc = g.AddInput(acc, data.KV("k", "a"))
	acc = g.AddInput(acc, data.KV("k", "b"))
	other := g.AddInput(g.CreateAccumulator(), data.KV("k", "c"))
	merged := g.MergeAccumulators(acc, other)
	out := g.ExtractOutput("k", merged)
	vals := out.Value.([]any)
	if len(vals) != 3 {
		t.Errorf("grouped = %v", vals)
	}
}

func TestSliceAndFuncSources(t *testing.T) {
	ss := &SliceSource{Parts: [][]data.Record{
		{data.KV("a", int64(1))},
		{data.KV("b", int64(2)), data.KV("c", int64(3))},
	}}
	if ss.NumPartitions() != 2 {
		t.Error("slice partitions wrong")
	}
	it, err := ss.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	it.Close()
	if n != 2 {
		t.Errorf("iterated %d records", n)
	}

	fs := &FuncSource{Partitions: 3, Gen: func(p int) (int, func() data.Record) {
		return 1, func() data.Record { return data.KV(int64(p), int64(p)) }
	}}
	it2, _ := fs.Open(2)
	r, ok, _ := it2.Next()
	if !ok || r.Key.(int64) != 2 {
		t.Errorf("func source record = %v", r)
	}
}

func TestCrossPipelineSidePanics(t *testing.T) {
	p1 := NewPipeline()
	p2 := NewPipeline()
	c1 := p1.Read("r", &FuncSource{Partitions: 1}, kv)
	c2 := p2.Create("m", nil, kv)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for cross-pipeline side input")
		}
	}()
	c1.ParDo("x", MapFunc(func(r data.Record) data.Record { return r }), kv,
		WithSide(SideInput{Name: "s", From: c2}))
}
