package recache

import (
	"fmt"
	"reflect"
	"testing"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/obs"
)

// readChain is read (cost 3) → consume (cost 2) → count, the shape of an
// MR map task. Everything that happens while it runs is appended to log:
// "gen i" when the source generates record i, "use i" when the fused
// ParDo consumes it, "charge n" for every CPU charge, from the read and
// from the interpreter alike.
type readChain struct {
	g             *dag.Graph
	read, consume dag.VertexID
	op            *dataflow.CombineOp
	opens         int
	log           []string
}

func newReadChain(t *testing.T, n int) *readChain {
	c := &readChain{}
	src := &dataflow.FuncSource{Partitions: 1, Gen: func(int) (int, func() data.Record) {
		c.opens++
		i := -1
		return n, func() data.Record {
			i++
			c.log = append(c.log, fmt.Sprintf("gen %d", i))
			return data.KV(int64(i), int64(i))
		}
	}}
	kv := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}
	p := dataflow.NewPipeline()
	read := p.Read("read", src, data.KVCoder{K: data.Int64Coder, V: data.Int64Coder}).ReadCost(3)
	consume := read.ParDo("consume", dataflow.DoFunc(func(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
		c.log = append(c.log, fmt.Sprintf("use %d", r.Value))
		emit(data.KV(fmt.Sprintf("k%d", r.Value.(int64)%3), int64(1)))
		return nil
	}), kv, dataflow.WithCost(2))
	comb := consume.CombinePerKey("count", dataflow.SumInt64Fn{}, kv, dataflow.WithAccumulatorCoder(kv))
	c.g, c.read, c.consume = p.Graph(), read.VertexID(), consume.VertexID()
	if c.op = exec.Combiner(c.g, comb.VertexID()); c.op == nil {
		t.Fatal("the chain's combine must take folded input")
	}
	return c
}

// run reads partition 0 through cache and folds it into the combine, the
// way both engines run a map task; it returns the folded counts and
// whether the read filled the cache.
func (c *readChain) run(t *testing.T, cache *Cache) (counts map[any]any, filled bool) {
	c.log = nil
	charge := func(n int) error {
		c.log = append(c.log, fmt.Sprintf("charge %d", n))
		return nil
	}
	in := exec.Inputs{
		Read: map[dag.VertexID]func() (dataflow.Iterator, error){c.read: func() (dataflow.Iterator, error) {
			it, f, err := cache.Read(c.g.Vertex(c.read), 0, nil, obs.Event{}, charge)
			filled = f
			return it, err
		}},
		Throttle: charge,
	}
	tables, fold := exec.FoldSink(c.op, 1)
	if _, err := exec.Run(c.g, []dag.VertexID{c.read, c.consume}, in,
		exec.Outputs{Sinks: map[dag.VertexID]func(data.Record){c.consume: fold}}); err != nil {
		t.Fatal(err)
	}
	counts = make(map[any]any)
	for _, r := range tables[0].Extract() {
		counts[r.Key] = r.Value
	}
	return counts, filled
}

func events(kind string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %d", kind, i)
	}
	return out
}

// TestReadStreamsUncached pins the uncached read path of both engines:
// the source generates each record only when the fused chain asks for it
// (never a slice of the partition), and the read is charged records ×
// OpCost when its stream ends, before the fused ParDo's charge.
func TestReadStreamsUncached(t *testing.T) {
	const n = 50
	c := newReadChain(t, n)
	counts, filled := c.run(t, nil)
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("gen %d", i), fmt.Sprintf("use %d", i))
	}
	want = append(want, fmt.Sprintf("charge %d", 3*n), fmt.Sprintf("charge %d", 2*n))
	if !reflect.DeepEqual(c.log, want) {
		t.Errorf("uncached read:\n got %v\nwant %v", c.log, want)
	}
	if filled {
		t.Error("an uncached read reported filling the cache")
	}
	if want := map[any]any{"k0": int64(17), "k1": int64(17), "k2": int64(16)}; !reflect.DeepEqual(counts, want) {
		t.Errorf("counts %v, want %v", counts, want)
	}
}

// TestReadCachedFillsOnce pins the cached read path: a miss generates the
// whole partition, pays the read charge and caches it, and only then does
// the chain run; a hit reads the resident records, charges only the
// ParDo, and leaves the source unopened.
func TestReadCachedFillsOnce(t *testing.T) {
	const n = 50
	c := newReadChain(t, n)
	cache := New(1 << 20)
	miss, filled := c.run(t, cache)
	want := append(events("gen", n), fmt.Sprintf("charge %d", 3*n))
	want = append(append(want, events("use", n)...), fmt.Sprintf("charge %d", 2*n))
	if !reflect.DeepEqual(c.log, want) || !filled {
		t.Errorf("cached miss (filled %v):\n got %v\nwant %v", filled, c.log, want)
	}
	recs, ok := cache.Get(Key{Vertex: c.read, Partition: 0})
	if !ok || len(recs) != n || cap(recs) != n {
		t.Errorf("cache entry: ok %v, len %d, cap %d; want an exactly sized slice of %d", ok, len(recs), cap(recs), n)
	}

	hit, filled := c.run(t, cache)
	want = append(events("use", n), fmt.Sprintf("charge %d", 2*n))
	if !reflect.DeepEqual(c.log, want) || filled {
		t.Errorf("cached hit (filled %v):\n got %v\nwant %v", filled, c.log, want)
	}
	if c.opens != 1 {
		t.Errorf("source opened %d times, want 1", c.opens)
	}
	if !reflect.DeepEqual(miss, hit) {
		t.Errorf("hit counts %v, miss counts %v", hit, miss)
	}
}
