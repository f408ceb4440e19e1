package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
)

// appendFn is an append-style group combiner, like GroupFn and ALS's
// entry lists: its output order is the order accumulators were merged in.
type appendFn struct{}

func (appendFn) CreateAccumulator() any { return []float64(nil) }
func (appendFn) AddInput(acc any, r data.Record) any {
	return append(acc.([]float64), r.Value.(float64))
}
func (appendFn) MergeAccumulators(a, b any) any { return append(a.([]float64), b.([]float64)...) }
func (appendFn) ExtractOutput(key, acc any) data.Record {
	return data.Record{Key: key, Value: acc.([]float64)}
}

// TestCombineMergesFoldedCovers checks the equivalence the map-side combine
// rests on. Cut a partition's records into random covers — contiguous runs,
// as map tasks are — and fold each cover through FoldPartitions, EncodeAccs
// and the accumulator codec, the path a shuffle bucket takes. Feeding the
// reduce-side combine those accumulators, in cover order, must Extract the
// same records as feeding it the raw records, for a sum and for an
// append-style group; and Throttle is charged once per accumulator record.
func TestCombineMergesFoldedCovers(t *testing.T) {
	const nParts = 3
	cases := []struct {
		name    string
		fn      dataflow.CombineFn
		in, acc data.Coder
		val     func(rng *rand.Rand) any
	}{
		{"sum", dataflow.SumInt64Fn{}, kv, kv, func(rng *rand.Rand) any { return rng.Int63n(100) - 50 }},
		{"append", appendFn{}, data.KVCoder{K: data.StringCoder, V: data.Float64Coder},
			data.KVCoder{K: data.StringCoder, V: data.Float64sCoder},
			func(rng *rand.Rand) any { return rng.Float64() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := dataflow.NewPipeline()
			src := &dataflow.SliceSource{Parts: [][]data.Record{{}}}
			comb := p.Read("read", src, c.in).CombinePerKey("combine", c.fn, c.acc,
				dataflow.WithAccumulatorCoder(c.acc), dataflow.WithCombineCost(3))
			g := p.Graph()
			id := comb.VertexID()
			op := Combiner(g, id)
			if op == nil {
				t.Fatal("a keyed combine with an accumulator coder must take folded input")
			}

			run := func(in Inputs) ([]data.Record, int) {
				charged := 0
				in.Throttle = func(n int) error { charged += n; return nil }
				outs, err := RunFragment(g, []dag.VertexID{id}, in)
				if err != nil {
					t.Fatal(err)
				}
				return outs[id], charged
			}

			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				recs := make([]data.Record, rng.Intn(60))
				for i := range recs {
					recs[i] = data.KV(fmt.Sprintf("k%d", rng.Intn(12)), c.val(rng))
				}
				raw := make([][]data.Record, nParts)
				for _, r := range recs {
					p := data.Partition(r.Key, nParts)
					raw[p] = append(raw[p], r)
				}
				accs := make([][]data.Record, nParts)
				for lo := 0; lo < len(recs); {
					hi := lo + 1 + rng.Intn(len(recs)-lo)
					payloads, err := EncodeAccs(op.AccCoder, FoldPartitions(op, nParts, recs[lo:hi]))
					if err != nil {
						t.Fatal(err)
					}
					for p, b := range payloads {
						dec, err := data.DecodeAll(op.AccCoder, b)
						if err != nil {
							t.Fatal(err)
						}
						accs[p] = append(accs[p], dec...)
					}
					lo = hi
				}
				for p := 0; p < nParts; p++ {
					want, _ := run(Inputs{Ext: map[dag.VertexID]map[string][]data.Record{id: {"": raw[p]}}})
					got, charged := run(Inputs{Accs: map[dag.VertexID][]data.Record{id: accs[p]}})
					if !reflect.DeepEqual(got, want) {
						t.Logf("partition %d: folded %v, raw %v", p, got, want)
						return false
					}
					if charged != 3*len(accs[p]) {
						t.Logf("partition %d: charged %d for %d accumulators at cost 3", p, charged, len(accs[p]))
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCombinerRule pins which combines take folded input: only one with an
// accumulator coder whose one input is a shuffled main input.
func TestCombinerRule(t *testing.T) {
	p := dataflow.NewPipeline()
	src := &dataflow.SliceSource{Parts: [][]data.Record{{}}}
	read := p.Read("read", src, kv)
	keyed := read.CombinePerKey("keyed", dataflow.SumInt64Fn{}, kv, dataflow.WithAccumulatorCoder(kv))
	global := read.CombineGlobally("global", dataflow.SumInt64Fn{}, kv, dataflow.WithAccumulatorCoder(kv))
	noCoder := read.CombinePerKey("no-coder", dataflow.SumInt64Fn{}, kv)
	g := p.Graph()
	for _, c := range []struct {
		id   dag.VertexID
		want bool
	}{
		{keyed.VertexID(), true},
		{global.VertexID(), true},
		{noCoder.VertexID(), false},
		{read.VertexID(), false},
	} {
		if got := Combiner(g, c.id) != nil; got != c.want {
			t.Errorf("%s: Combiner = %v, want %v", g.Vertex(c.id).Name, got, c.want)
		}
	}
}

// TestExactSumFoldsAnyCoverAnyOrder extends the equivalence above to the
// float gradient sum, where it must hold bit for bit: cut the input into
// covers any way (not only contiguous runs), fold each through
// FoldPartitions and the section codec, merge the covers in any order —
// directly, or first into shards whose tables are encoded and merged
// again, as a two-level fan-in does — and the encoded output must equal
// the flat fold's bytes every time.
func TestExactSumFoldsAnyCoverAnyOrder(t *testing.T) {
	vec := data.KVCoder{K: data.NilCoder, V: data.Float64sCoder}
	p := dataflow.NewPipeline()
	src := &dataflow.SliceSource{Parts: [][]data.Record{{}}}
	comb := p.Read("read", src, vec).CombineGlobally("sum", dataflow.SumFloat64sFn{}, vec,
		dataflow.WithAccumulatorCoder(vec))
	op := Combiner(p.Graph(), comb.VertexID())
	if op == nil {
		t.Fatal("a global combine with an accumulator coder must take folded input")
	}
	encode := func(tb *AccTable) []byte {
		b, err := data.EncodeAll(vec, tb.Extract())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// section is one table through the codec, as a pushed section travels.
	section := func(tb *AccTable) []data.Record {
		payloads, err := EncodeAccs(op.AccCoder, []*AccTable{tb})
		if err != nil {
			t.Fatal(err)
		}
		accs, err := data.DecodeAll(op.AccCoder, payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		return accs
	}
	merge := func(dst *AccTable, accs []data.Record) {
		for _, a := range accs {
			dst.MergeAcc(a.Key, a.Value)
		}
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const dim = 6
		recs := make([]data.Record, 1+rng.Intn(60))
		for i := range recs {
			v := make([]float64, dim-rng.Intn(2)) // now and then a shorter vector
			scale := []float64{1e-9, 1e-3, 1, 1e3}[rng.Intn(4)]
			for j := range v {
				v[j] = rng.NormFloat64() * scale
			}
			recs[i] = data.Record{Value: v}
		}
		flat := NewAccTable(op.Fn, op.Global)
		for _, r := range recs {
			flat.AddRecord(r)
		}
		want := encode(flat)

		var covers [][]data.Record
		order := rng.Perm(len(recs))
		for lo := 0; lo < len(order); {
			hi := lo + 1 + rng.Intn(len(order)-lo)
			var cover []data.Record
			for _, i := range order[lo:hi] {
				cover = append(cover, recs[i])
			}
			covers = append(covers, section(FoldPartitions(op, 1, cover)[0]))
			lo = hi
		}
		rng.Shuffle(len(covers), func(i, j int) { covers[i], covers[j] = covers[j], covers[i] })
		shards := make([]*AccTable, 1+rng.Intn(4))
		for i := range shards {
			shards[i] = NewAccTable(op.Fn, op.Global)
		}
		for _, c := range covers {
			merge(shards[rng.Intn(len(shards))], c)
		}
		root := shards[0]
		for _, sh := range shards[1:] {
			if sh.Len() > 0 {
				merge(root, section(sh))
			}
		}
		if got := encode(root); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: %d records in %d covers over %d shards: fold differs from the flat fold",
				seed, len(recs), len(covers), len(shards))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
