package workloads

import (
	"fmt"
	"math/rand"

	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/linalg"
)

// ALSConfig sizes the alternating-least-squares workload (the stand-in
// for the paper's 10GB Yahoo! Music ratings: 717M ratings of 136K songs
// by 1.8M users, rank 50, 10 iterations — here scaled down with the same
// alternating user/item factor structure and long dependency chains).
type ALSConfig struct {
	Partitions     int
	RatingsPerPart int
	Users          int
	Items          int
	Rank           int
	Iterations     int
	Lambda         float64
	// SolveCost is the CPU tokens per grouped entity charged for the
	// per-entity normal-equation solve (rank^3-ish work; default 1).
	SolveCost int
	// ReadCost is the CPU tokens per rating charged when reading the
	// dataset from external storage (default 1).
	ReadCost int
	Seed     int64
}

// DefaultALSConfig returns a laptop-scale ALS workload.
func DefaultALSConfig() ALSConfig {
	return ALSConfig{
		Partitions:     40,
		RatingsPerPart: 1800,
		Users:          1200,
		Items:          250,
		Rank:           8,
		Iterations:     10,
		Lambda:         0.1,
		SolveCost:      70,
		ReadCost:       2,
		Seed:           17,
	}
}

// ALSSource generates synthetic ratings from hidden user/item factors.
func ALSSource(cfg ALSConfig) dataflow.Source {
	return &dataflow.FuncSource{
		Partitions: cfg.Partitions,
		Gen: func(p int) (int, func() data.Record) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*15485863))
			return cfg.RatingsPerPart, func() data.Record {
				u := int64(rng.Intn(cfg.Users))
				it := int64(rng.Intn(cfg.Items))
				// Hidden preference structure plus noise.
				score := 3 + 1.5*hiddenAffinity(u, it, cfg.Rank) + 0.3*rng.NormFloat64()
				return data.Record{Value: Rating{User: u, Item: it, Score: score}}
			}
		},
	}
}

func hiddenAffinity(u, it int64, rank int) float64 {
	var s float64
	for k := 0; k < rank; k++ {
		uf := hashUnit(u*31 + int64(k))
		vf := hashUnit(it*37 + int64(k))
		s += uf * vf
	}
	return s / float64(rank)
}

// hashUnit maps an integer to a deterministic value in [-1, 1).
func hashUnit(x int64) float64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return float64(uint64(x)%2000000)/1000000 - 1
}

// collectEntriesFn groups ratings into per-key Entry lists (the Aggregate
// User/Item Data operators). Its accumulators are the lists themselves;
// as the paper notes for ALS, partial aggregation does not shrink the
// data but still lets reserved executors merge on the fly (§5.2.1).
type collectEntriesFn struct{}

func (collectEntriesFn) CreateAccumulator() any { return []Entry(nil) }
func (collectEntriesFn) AddInput(acc any, r data.Record) any {
	return append(acc.([]Entry), r.Value.(Entry))
}
func (collectEntriesFn) MergeAccumulators(a, b any) any {
	return append(a.([]Entry), b.([]Entry)...)
}
func (collectEntriesFn) ExtractOutput(key, acc any) data.Record {
	return data.Record{Key: key, Value: acc.([]Entry)}
}

// keepFactorFn is a pass-through keyed combine that lands computed
// factors on reserved containers (the Aggregate Nth User Factor
// operators of Figure 3(c)).
type keepFactorFn struct{}

func (keepFactorFn) CreateAccumulator() any { return []float64(nil) }
func (keepFactorFn) AddInput(acc any, r data.Record) any {
	return r.Value.([]float64)
}
func (keepFactorFn) MergeAccumulators(a, b any) any {
	if bv := b.([]float64); bv != nil {
		return bv
	}
	return a
}
func (keepFactorFn) ExtractOutput(key, acc any) data.Record {
	return data.Record{Key: key, Value: acc.([]float64)}
}

// keyByUserFn and keyByItemFn re-key ratings for the two groupings.
type keyByUserFn struct{}

func (keyByUserFn) Process(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
	v := r.Value.(Rating)
	emit(data.KV(v.User, Entry{ID: v.Item, Score: v.Score}))
	return nil
}

type keyByItemFn struct{}

func (keyByItemFn) Process(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
	v := r.Value.(Rating)
	emit(data.KV(v.Item, Entry{ID: v.User, Score: v.Score}))
	return nil
}

// entryKVCoder encodes the re-keyed (id, Entry) records.
type entryKVCoder struct{}

func (entryKVCoder) Name() string { return "kv<int64,entry>" }
func (entryKVCoder) EncodeRecord(e *data.Encoder, r data.Record) error {
	if err := e.Varint(r.Key.(int64)); err != nil {
		return err
	}
	en := r.Value.(Entry)
	if err := e.Varint(en.ID); err != nil {
		return err
	}
	return e.Float64(en.Score)
}
func (entryKVCoder) DecodeRecord(d *data.Decoder) (data.Record, error) {
	key, err := d.Varint()
	if err != nil {
		return data.Record{}, err
	}
	var en Entry
	if en.ID, err = d.Varint(); err != nil {
		return data.Record{}, err
	}
	if en.Score, err = d.Float64(); err != nil {
		return data.Record{}, err
	}
	return data.Record{Key: key, Value: en}, nil
}

// EntryKVCoder is the coder for re-keyed rating records.
var EntryKVCoder data.Coder = entryKVCoder{}

// initItemFactorFn deterministically seeds item factors from the grouped
// item data (Compute 1st Item Factor, reserved by the locality rule).
type initItemFactorFn struct{ rank int }

func (f initItemFactorFn) Process(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
	id := r.Key.(int64)
	factor := make([]float64, f.rank)
	for k := range factor {
		factor[k] = 0.5 + 0.1*hashUnit(id*1000003+int64(k))
	}
	emit(data.KV(id, factor))
	return nil
}

// solveFactorFn solves one side's least-squares update: for each entity
// (user or item), solve (Q^T Q + lambda*n*I) x = Q^T r over the entity's
// ratings, where Q rows are the counterpart factors from the broadcast
// side input.
type solveFactorFn struct {
	rank   int
	lambda float64
	side   string
}

// Process is unused; ProcessBundle builds the counterpart index once.
func (f solveFactorFn) Process(data.Record, dataflow.SideValues, dataflow.Emit) error {
	return fmt.Errorf("workloads: solveFactorFn processes bundles")
}

// ProcessBundle implements dataflow.BundleDoFn.
func (f solveFactorFn) ProcessBundle(recs []data.Record, sides dataflow.SideValues, emit dataflow.Emit) error {
	counterpart := make(map[int64][]float64)
	for _, r := range sides.Get(f.side) {
		counterpart[r.Key.(int64)] = r.Value.([]float64)
	}
	for _, r := range recs {
		id := r.Key.(int64)
		entries := r.Value.([]Entry)
		factor, err := SolveFactor(entries, counterpart, f.rank, f.lambda)
		if err != nil {
			return fmt.Errorf("workloads: solving factor for %d: %w", id, err)
		}
		emit(data.KV(id, factor))
	}
	return nil
}

// SolveFactor solves one entity's regularized least-squares update given
// its rating entries and the counterpart factors: the per-user/per-item
// kernel of ALS, exported for downstream use (e.g. folding in a new
// user).
func SolveFactor(entries []Entry, counterpart map[int64][]float64, rank int, lambda float64) ([]float64, error) {
	a := linalg.Zeros(rank)
	b := make([]float64, rank)
	n := 0
	for _, en := range entries {
		q, ok := counterpart[en.ID]
		if !ok {
			continue // counterpart unseen on the other side
		}
		linalg.AddOuter(a, q, 1)
		linalg.AXPY(en.Score, q, b)
		n++
	}
	if n == 0 {
		return make([]float64, rank), nil
	}
	reg := lambda * float64(n)
	for i := 0; i < rank; i++ {
		a[i][i] += reg
	}
	return linalg.Solve(a, b)
}

// ALS builds the unrolled alternating pipeline of Figure 3(c).
func ALS(cfg ALSConfig) *dataflow.Pipeline {
	p := dataflow.NewPipeline()
	ratings := p.Read("read-ratings", ALSSource(cfg), RatingCoder).Cached().ReadCost(cfg.ReadCost)

	userData := ratings.
		ParDo("key-by-user", keyByUserFn{}, EntryKVCoder).
		CombinePerKey("aggregate-user-data", collectEntriesFn{}, EntryListCoder,
			dataflow.WithAccumulatorCoder(EntryListCoder))
	itemData := ratings.
		ParDo("key-by-item", keyByItemFn{}, EntryKVCoder).
		CombinePerKey("aggregate-item-data", collectEntriesFn{}, EntryListCoder,
			dataflow.WithAccumulatorCoder(EntryListCoder))

	itemFactors := itemData.ParDo("compute-1st-item-factor",
		initItemFactorFn{rank: cfg.Rank}, FactorCoder)

	for it := 1; it <= cfg.Iterations; it++ {
		uSide := fmt.Sprintf("item-factors-%d", it)
		userFactors := userData.
			ParDo(fmt.Sprintf("compute-user-factor-%d", it),
				solveFactorFn{rank: cfg.Rank, lambda: cfg.Lambda, side: uSide}, FactorCoder,
				dataflow.WithSide(dataflow.SideInput{Name: uSide, From: itemFactors, Cached: true}),
				dataflow.WithInputCache(),
				dataflow.WithCost(cfg.SolveCost)).
			CombinePerKey(fmt.Sprintf("aggregate-user-factor-%d", it),
				keepFactorFn{}, FactorCoder,
				dataflow.WithAccumulatorCoder(FactorCoder))

		iSide := fmt.Sprintf("user-factors-%d", it)
		itemFactors = itemData.
			ParDo(fmt.Sprintf("compute-item-factor-%d", it+1),
				solveFactorFn{rank: cfg.Rank, lambda: cfg.Lambda, side: iSide}, FactorCoder,
				dataflow.WithSide(dataflow.SideInput{Name: iSide, From: userFactors, Cached: true}),
				dataflow.WithInputCache(),
				dataflow.WithCost(cfg.SolveCost)).
			CombinePerKey(fmt.Sprintf("aggregate-item-factor-%d", it+1),
				keepFactorFn{}, FactorCoder,
				dataflow.WithAccumulatorCoder(FactorCoder))
	}
	return p
}

// ALSReference computes the final item factors sequentially.
func ALSReference(cfg ALSConfig) map[int64][]float64 {
	src := ALSSource(cfg).(*dataflow.FuncSource)
	user := make(map[int64][]Entry)
	item := make(map[int64][]Entry)
	for p := 0; p < cfg.Partitions; p++ {
		n, next := src.Gen(p)
		for i := 0; i < n; i++ {
			v := next().Value.(Rating)
			user[v.User] = append(user[v.User], Entry{ID: v.Item, Score: v.Score})
			item[v.Item] = append(item[v.Item], Entry{ID: v.User, Score: v.Score})
		}
	}
	itemF := make(map[int64][]float64)
	for id := range item {
		factor := make([]float64, cfg.Rank)
		for k := range factor {
			factor[k] = 0.5 + 0.1*hashUnit(id*1000003+int64(k))
		}
		itemF[id] = factor
	}
	for it := 0; it < cfg.Iterations; it++ {
		userF := make(map[int64][]float64)
		for id, entries := range user {
			f, err := SolveFactor(entries, itemF, cfg.Rank, cfg.Lambda)
			if err != nil {
				panic(err)
			}
			userF[id] = f
		}
		next := make(map[int64][]float64)
		for id, entries := range item {
			f, err := SolveFactor(entries, userF, cfg.Rank, cfg.Lambda)
			if err != nil {
				panic(err)
			}
			next[id] = f
		}
		itemF = next
	}
	return itemF
}
