package workloads

import (
	"fmt"
	"math/rand"

	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/linalg"
)

// MLRConfig sizes the multinomial-logistic-regression workload (the
// stand-in for the paper's 31GB Petuum-generated sparse dataset: 500K
// samples, 512 classes, 100K features; here scaled down but with the same
// structure: per-partition gradient computation over a broadcast model,
// many-to-one tree aggregation, and a driver-side-free model update).
type MLRConfig struct {
	Partitions     int
	SamplesPerPart int
	Features       int
	Classes        int
	NonZeros       int // nonzero features per sample
	Iterations     int
	LearningRate   float64
	// TreeWidth is the fan-in of the intermediate tree-aggregation
	// level (MLlib's treeAggregate runs 22 aggregate tasks for the
	// paper's 550 map tasks; scaled proportionally here).
	TreeWidth int
	Seed      int64
}

// DefaultMLRConfig returns a laptop-scale MLR workload.
func DefaultMLRConfig() MLRConfig {
	return MLRConfig{
		Partitions:     160,
		SamplesPerPart: 30,
		Features:       256,
		Classes:        8,
		NonZeros:       24,
		Iterations:     5,
		LearningRate:   0.5,
		TreeWidth:      10,
		Seed:           13,
	}
}

// MLRSource generates the synthetic sparse training samples. Labels are
// drawn from a hidden ground-truth model so gradients are informative.
func MLRSource(cfg MLRConfig) dataflow.Source {
	return &dataflow.FuncSource{
		Partitions: cfg.Partitions,
		Gen: func(p int) (int, func() data.Record) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*104729))
			return cfg.SamplesPerPart, func() data.Record {
				s := Sample{
					Idx: make([]int64, cfg.NonZeros),
					Val: make([]float64, cfg.NonZeros),
				}
				seen := make(map[int64]bool, cfg.NonZeros)
				for j := 0; j < cfg.NonZeros; j++ {
					idx := int64(rng.Intn(cfg.Features))
					for seen[idx] {
						idx = int64(rng.Intn(cfg.Features))
					}
					seen[idx] = true
					s.Idx[j] = idx
					s.Val[j] = rng.NormFloat64()
				}
				// Hidden model: class k prefers features congruent to k.
				best, bestScore := 0, -1e300
				for k := 0; k < cfg.Classes; k++ {
					var score float64
					for j, idx := range s.Idx {
						if int(idx)%cfg.Classes == k {
							score += s.Val[j]
						}
					}
					if score > bestScore {
						best, bestScore = k, score
					}
				}
				s.Label = int64(best)
				return data.Record{Value: s}
			}
		},
	}
}

// InitialMLRModel returns the zero model (classes × features, row-major).
func InitialMLRModel(cfg MLRConfig) []float64 {
	return make([]float64, cfg.Classes*cfg.Features)
}

// mlrGradientFn computes one partition's gradient of the softmax loss
// against the broadcast model, emitting a single dense gradient record
// per task (the Compute Gradient operator of Figure 3(b)).
type mlrGradientFn struct {
	cfg  MLRConfig
	side string
}

// Process is unused; ProcessBundle does the work.
func (f mlrGradientFn) Process(data.Record, dataflow.SideValues, dataflow.Emit) error {
	return fmt.Errorf("workloads: mlrGradientFn processes bundles")
}

// ProcessBundle implements dataflow.BundleDoFn.
func (f mlrGradientFn) ProcessBundle(recs []data.Record, sides dataflow.SideValues, emit dataflow.Emit) error {
	model := sides.Get(f.side)
	if len(model) != 1 {
		return fmt.Errorf("workloads: expected 1 model record, got %d", len(model))
	}
	w := model[0].Value.([]float64)
	k, d := f.cfg.Classes, f.cfg.Features
	grad := make([]float64, k*d)
	scores := make([]float64, k)
	probs := make([]float64, k)
	var bucket uint64
	for _, r := range recs {
		s := r.Value.(Sample)
		for _, idx := range s.Idx {
			bucket = bucket*31 + uint64(idx)
		}
	}
	for _, r := range recs {
		s := r.Value.(Sample)
		for c := 0; c < k; c++ {
			row := w[c*d : (c+1)*d]
			var sc float64
			for j, idx := range s.Idx {
				sc += row[idx] * s.Val[j]
			}
			scores[c] = sc
		}
		linalg.Softmax(scores, probs)
		for c := 0; c < k; c++ {
			coef := probs[c]
			if int64(c) == s.Label {
				coef -= 1
			}
			row := grad[c*d : (c+1)*d]
			for j, idx := range s.Idx {
				row[idx] += coef * s.Val[j]
			}
		}
	}
	if f.cfg.TreeWidth <= 0 {
		emit(data.Record{Value: grad})
		return nil
	}
	emit(data.Record{Key: int64(bucket % uint64(f.cfg.TreeWidth)), Value: grad})
	return nil
}

// mlrUpdateFn applies the aggregated gradient to the previous model: the
// Compute Nth Model operator, reserved by the locality rule.
type mlrUpdateFn struct {
	cfg MLRConfig
}

// ProcessPartition implements dataflow.MultiDoFn: input "" carries the
// aggregated gradient, "in1" the previous model.
func (f mlrUpdateFn) ProcessPartition(inputs map[string][]data.Record, emit dataflow.Emit) error {
	grads := inputs[""]
	models := inputs["in1"]
	if len(grads) != 1 || len(models) != 1 {
		return fmt.Errorf("workloads: model update expects 1 gradient and 1 model, got %d/%d",
			len(grads), len(models))
	}
	grad := grads[0].Value.([]float64)
	prev := models[0].Value.([]float64)
	n := float64(f.cfg.Partitions * f.cfg.SamplesPerPart)
	next := make([]float64, len(prev))
	copy(next, prev)
	linalg.AXPY(-f.cfg.LearningRate/n, grad, next)
	emit(data.Record{Value: next})
	return nil
}

// MLR builds the unrolled iterative pipeline of Figure 3(b):
//
//	Create 1st Model (reserved)         Read Training Data (transient)
//	        \ one-to-many                     | one-to-one
//	         Compute Gradient (transient, model side input, cached read)
//	              | many-to-one
//	         Aggregate Gradients (reserved, partially aggregated)
//	              | one-to-one   + one-to-one from previous model
//	         Compute 2nd Model (reserved)  ... repeated per iteration
func MLR(cfg MLRConfig) *dataflow.Pipeline {
	p := dataflow.NewPipeline()
	train := p.Read("read-training-data", MLRSource(cfg), SampleCoder).Cached()
	model := p.Create("create-1st-model",
		[]data.Record{{Value: InitialMLRModel(cfg)}}, VecCoder)

	for it := 1; it <= cfg.Iterations; it++ {
		side := fmt.Sprintf("model-%d", it)
		gradCoder := data.Coder(VecCoder)
		if cfg.TreeWidth > 0 {
			gradCoder = treeVecCoder
		}
		grads := train.ParDo(fmt.Sprintf("compute-gradient-%d", it),
			mlrGradientFn{cfg: cfg, side: side}, gradCoder,
			dataflow.WithSide(dataflow.SideInput{Name: side, From: model, Cached: true}),
			dataflow.WithInputCache())
		// With TreeWidth > 0 an intermediate tree-aggregation level is
		// inserted, as MLlib's treeAggregate does for the Spark
		// baselines (§5.1.3 uses MLlib programs for Spark and the
		// Figure 3(b) Beam program for Pado, whose transient-side
		// partial aggregation plays the tree's role).
		agg := grads
		if cfg.TreeWidth > 0 {
			agg = grads.CombinePerKey(fmt.Sprintf("tree-aggregate-%d", it),
				dataflow.SumFloat64sFn{}, treeVecCoder,
				dataflow.WithAccumulatorCoder(treeVecCoder))
		}
		agg = agg.CombineGlobally(fmt.Sprintf("aggregate-gradients-%d", it),
			dataflow.SumFloat64sFn{}, VecCoder,
			dataflow.WithAccumulatorCoder(VecCoder))
		model = agg.Apply(fmt.Sprintf("compute-model-%d", it+1),
			mlrUpdateFn{cfg: cfg}, VecCoder, model)
	}
	return p
}

// treeVecCoder carries (bucket, vector) records between the gradient and
// tree-aggregation levels.
var treeVecCoder = data.KVCoder{K: data.Int64Coder, V: data.Float64sCoder}

// MLRReference computes the final model sequentially with the same math.
func MLRReference(cfg MLRConfig) []float64 {
	src := MLRSource(cfg).(*dataflow.FuncSource)
	var all []data.Record
	for p := 0; p < cfg.Partitions; p++ {
		n, next := src.Gen(p)
		for i := 0; i < n; i++ {
			all = append(all, next())
		}
	}
	model := InitialMLRModel(cfg)
	fn := mlrGradientFn{cfg: cfg, side: "m"}
	for it := 0; it < cfg.Iterations; it++ {
		grad := make([]float64, len(model))
		sides := refSides{"m": {{Value: model}}}
		var out []data.Record
		if err := fn.ProcessBundle(all, sides, func(r data.Record) { out = append(out, r) }); err != nil {
			panic(err)
		}
		copy(grad, out[0].Value.([]float64))
		n := float64(cfg.Partitions * cfg.SamplesPerPart)
		next := make([]float64, len(model))
		copy(next, model)
		linalg.AXPY(-cfg.LearningRate/n, grad, next)
		model = next
	}
	return model
}

// refSides adapts a plain map to dataflow.SideValues for reference runs.
type refSides map[string][]data.Record

// Get implements dataflow.SideValues.
func (s refSides) Get(name string) []data.Record { return s[name] }
