package workloads

import (
	"reflect"
	"testing"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
)

// TestTransientFragmentsLeaveInputsUnmodified checks the workloads against
// the input-slice contract of dataflow.DoFn: the fragment interpreter hands
// functions their input slices uncopied, so a function that modified one
// would corrupt an input-cache entry or a fetched block. Every transient
// fragment of every workload runs over held slices — its read partition
// and its cross-stage inputs — which must be deep-equal before and after.
func TestTransientFragmentsLeaveInputsUnmodified(t *testing.T) {
	cases := []struct {
		name string
		p    *dataflow.Pipeline
	}{
		{"mr", MR(MRConfig{Partitions: 2, LinesPerPart: 40, Docs: 10, Seed: 3})},
		{"mlr", MLR(MLRConfig{Partitions: 2, SamplesPerPart: 10, Features: 16, Classes: 3,
			NonZeros: 4, Iterations: 2, LearningRate: 0.5, Seed: 3})},
		{"mlr-tree", MLR(MLRConfig{Partitions: 2, SamplesPerPart: 10, Features: 16, Classes: 3,
			NonZeros: 4, Iterations: 2, LearningRate: 0.5, TreeWidth: 2, Seed: 3})},
		{"als", ALS(ALSConfig{Partitions: 2, RatingsPerPart: 30, Users: 8, Items: 6, Rank: 2,
			Iterations: 2, Lambda: 0.1, Seed: 3})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.p.Graph()
			plan, err := core.Compile(g, core.PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			outputs := evalSerial(t, g)
			fragments, inputs := 0, 0
			for _, st := range plan.Stages {
				for _, f := range st.Fragments {
					fragments++
					in := exec.Inputs{
						Ext:   make(map[dag.VertexID]map[string][]data.Record),
						Sides: make(map[dag.VertexID]map[string][]data.Record),
						Read:  make(map[dag.VertexID]func() (dataflow.Iterator, error)),
					}
					var held [][]data.Record
					for _, op := range f.Ops {
						if _, ok := g.Vertex(op).Op.(*dataflow.ReadOp); ok {
							recs := outputs[op]
							held = append(held, recs)
							in.Read[op] = func() (dataflow.Iterator, error) {
								return (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
							}
						}
						for _, si := range st.InputsTo(op) {
							dst := in.Ext
							if si.Dep == dag.OneToMany {
								dst = in.Sides
							}
							if dst[op] == nil {
								dst[op] = make(map[string][]data.Record)
							}
							dst[op][si.Tag] = outputs[si.FromVertex]
							held = append(held, outputs[si.FromVertex])
						}
					}
					for _, recs := range held {
						inputs += len(recs)
					}
					before := deepCopy(reflect.ValueOf(held)).Interface()
					if _, err := exec.RunFragment(g, f.Ops, in); err != nil {
						t.Fatalf("fragment %v: %v", f.Ops, err)
					}
					if !reflect.DeepEqual(before, held) {
						t.Errorf("fragment %v modified its input slices", f.Ops)
					}
				}
			}
			if fragments == 0 || inputs == 0 {
				t.Fatalf("%d transient fragments over %d input records", fragments, inputs)
			}
		})
	}
}

// evalSerial computes every vertex's output of g as a single partition, in
// vertex order (the pipeline builder adds a vertex after its inputs).
func evalSerial(t *testing.T, g *dag.Graph) map[dag.VertexID][]data.Record {
	outputs := make(map[dag.VertexID][]data.Record)
	for id := dag.VertexID(0); int(id) < g.NumVertices(); id++ {
		if rd, ok := g.Vertex(id).Op.(*dataflow.ReadOp); ok {
			for p := 0; p < rd.Source.NumPartitions(); p++ {
				recs, err := dataflow.ReadAll(rd.Source, p)
				if err != nil {
					t.Fatal(err)
				}
				outputs[id] = append(outputs[id], recs...)
			}
			continue
		}
		in := exec.Inputs{
			Ext:   map[dag.VertexID]map[string][]data.Record{id: {}},
			Sides: map[dag.VertexID]map[string][]data.Record{id: {}},
		}
		for _, e := range g.InEdges(id) {
			if e.Dep == dag.OneToMany {
				in.Sides[id][e.Tag] = outputs[e.From]
			} else {
				in.Ext[id][e.Tag] = outputs[e.From]
			}
		}
		outs, err := exec.RunFragment(g, []dag.VertexID{id}, in)
		if err != nil {
			t.Fatal(err)
		}
		outputs[id] = outs[id]
	}
	return outputs
}

// deepCopy copies v and everything its slices and interfaces reach.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type()).Elem()
		c.Set(deepCopy(v.Elem()))
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
		return c
	default:
		return v
	}
}
