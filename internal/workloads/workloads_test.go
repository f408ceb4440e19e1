package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pado/internal/data"
	"pado/internal/dataflow"
)

func TestRatingCoderRoundTrip(t *testing.T) {
	err := quick.Check(func(user, item int64, score float64) bool {
		if math.IsNaN(score) {
			return true
		}
		in := data.Record{Value: Rating{User: user, Item: item, Score: score}}
		payload, err := data.EncodeAll(RatingCoder, []data.Record{in})
		if err != nil {
			return false
		}
		out, err := data.DecodeAll(RatingCoder, payload)
		return err == nil && len(out) == 1 && out[0].Value.(Rating) == in.Value.(Rating)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestEntryListCoderRoundTrip(t *testing.T) {
	in := []data.Record{
		{Key: int64(7), Value: []Entry{{ID: 1, Score: 2.5}, {ID: -3, Score: 0}}},
		{Key: int64(-1), Value: []Entry{}},
	}
	payload, err := data.EncodeAll(EntryListCoder, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := data.DecodeAll(EntryListCoder, payload)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Key.(int64) != 7 || !reflect.DeepEqual(out[0].Value.([]Entry), in[0].Value.([]Entry)) {
		t.Errorf("got %v", out[0])
	}
	if len(out[1].Value.([]Entry)) != 0 {
		t.Errorf("empty list corrupted: %v", out[1])
	}
}

func TestSampleCoderRoundTrip(t *testing.T) {
	in := data.Record{Value: Sample{Label: 3, Idx: []int64{1, 5, 9}, Val: []float64{0.1, -2, 3}}}
	payload, err := data.EncodeAll(SampleCoder, []data.Record{in})
	if err != nil {
		t.Fatal(err)
	}
	out, err := data.DecodeAll(SampleCoder, payload)
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].Value.(Sample)
	want := in.Value.(Sample)
	if got.Label != want.Label || !reflect.DeepEqual(got.Idx, want.Idx) || !reflect.DeepEqual(got.Val, want.Val) {
		t.Errorf("got %+v", got)
	}
}

func TestSampleCoderRejectsMismatchedLengths(t *testing.T) {
	bad := data.Record{Value: Sample{Idx: []int64{1}, Val: []float64{1, 2}}}
	if _, err := data.EncodeAll(SampleCoder, []data.Record{bad}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestSourcesDeterministic(t *testing.T) {
	mr := MRConfig{Partitions: 3, LinesPerPart: 50, Docs: 100, Seed: 2}
	if !reflect.DeepEqual(readPart(t, MRSource(mr), 1), readPart(t, MRSource(mr), 1)) {
		t.Error("MR source not deterministic")
	}

	als := ALSConfig{Partitions: 3, RatingsPerPart: 20, Users: 10, Items: 5, Rank: 2, Seed: 2}
	if !reflect.DeepEqual(readPart(t, ALSSource(als), 2), readPart(t, ALSSource(als), 2)) {
		t.Error("ALS source not deterministic")
	}

	mlr := MLRConfig{Partitions: 3, SamplesPerPart: 10, Features: 16, Classes: 2, NonZeros: 4, Seed: 2}
	if !reflect.DeepEqual(readPart(t, MLRSource(mlr), 0), readPart(t, MLRSource(mlr), 0)) {
		t.Error("MLR source not deterministic")
	}
}

// TestMRLineMatchesSprintf pins the MR generator's line format to the
// fmt.Sprintf it replaced, at the padding edges of the document id.
func TestMRLineMatchesSprintf(t *testing.T) {
	docs := []uint64{0, 1, 9, 10, 99, 999999, 1000000, 9999999, 10000000, 12345678, 1 << 40, math.MaxUint64}
	var line []byte
	for _, doc := range docs {
		for _, count := range []int{0, 1, 10, 999} {
			line = appendMRLine(line[:0], doc, count)
			if want := fmt.Sprintf("doc%07d %d", doc, count); string(line) != want {
				t.Errorf("appendMRLine(%d, %d) = %q, want %q", doc, count, line, want)
			}
		}
	}
}

// TestMRSourceMatchesSprintf regenerates partitions of the default MR
// input from the same random draws with fmt.Sprintf and compares them line
// for line with what the source streams.
func TestMRSourceMatchesSprintf(t *testing.T) {
	cfg := DefaultMRConfig()
	for _, p := range []int{0, cfg.Partitions - 1} {
		rng := rand.New(rand.NewSource(cfg.partSeed(p)))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Docs-1))
		got := readPart(t, MRSource(cfg), p)
		if len(got) != cfg.LinesPerPart {
			t.Fatalf("partition %d has %d lines, want %d", p, len(got), cfg.LinesPerPart)
		}
		for i, r := range got {
			doc := zipf.Uint64()
			if want := fmt.Sprintf("doc%07d %d", doc, rng.Intn(1000)); r.Value != want {
				t.Fatalf("partition %d line %d = %q, want %q", p, i, r.Value, want)
			}
		}
	}
}

// readPart materializes one partition of src.
func readPart(t *testing.T, src dataflow.Source, p int) []data.Record {
	t.Helper()
	recs, err := dataflow.ReadAll(src, p)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestMRReferenceMatchesManualSum(t *testing.T) {
	cfg := MRConfig{Partitions: 2, LinesPerPart: 30, Docs: 10, Seed: 4}
	ref := MRReference(cfg)
	var total int64
	for _, v := range ref {
		total += v
	}
	// Recompute the grand total directly from the source.
	src := MRSource(cfg)
	var want int64
	for p := 0; p < cfg.Partitions; p++ {
		for _, r := range readPart(t, src, p) {
			line := r.Value.(string)
			var doc string
			var n int64
			if _, err := fmt.Sscanf(line, "%s %d", &doc, &n); err != nil {
				t.Fatal(err)
			}
			want += n
		}
	}
	if total != want {
		t.Errorf("reference total %d != %d", total, want)
	}
}

func TestMLRReferenceLearns(t *testing.T) {
	cfg := MLRConfig{Partitions: 4, SamplesPerPart: 30, Features: 32, Classes: 4,
		NonZeros: 8, Iterations: 4, LearningRate: 0.5, Seed: 6}
	model := MLRReference(cfg)
	if len(model) != cfg.Classes*cfg.Features {
		t.Fatalf("model size %d", len(model))
	}
	// The trained model must classify the training set far better than
	// chance (25% for 4 classes).
	src := MLRSource(cfg)
	correct, total := 0, 0
	for p := 0; p < cfg.Partitions; p++ {
		for _, r := range readPart(t, src, p) {
			s := r.Value.(Sample)
			best, score := int64(0), math.Inf(-1)
			for c := 0; c < cfg.Classes; c++ {
				row := model[c*cfg.Features : (c+1)*cfg.Features]
				var sc float64
				for j, idx := range s.Idx {
					sc += row[idx] * s.Val[j]
				}
				if sc > score {
					best, score = int64(c), sc
				}
			}
			if best == s.Label {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.5 {
		t.Errorf("training accuracy %.2f; model did not learn", acc)
	}
}

func TestALSReferenceReducesError(t *testing.T) {
	cfg := ALSConfig{Partitions: 4, RatingsPerPart: 100, Users: 30, Items: 10,
		Rank: 4, Iterations: 5, Lambda: 0.1, Seed: 8}
	itemF := ALSReference(cfg)
	if len(itemF) == 0 {
		t.Fatal("no item factors")
	}
	// Reconstruct user factors and check the training RMSE is decent.
	user := map[int64][]Entry{}
	src := ALSSource(cfg)
	var ratings []Rating
	for p := 0; p < cfg.Partitions; p++ {
		for _, r := range readPart(t, src, p) {
			v := r.Value.(Rating)
			ratings = append(ratings, v)
			user[v.User] = append(user[v.User], Entry{ID: v.Item, Score: v.Score})
		}
	}
	userF := map[int64][]float64{}
	for id, entries := range user {
		f, err := SolveFactor(entries, itemF, cfg.Rank, cfg.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		userF[id] = f
	}
	var sse, sst, mean float64
	for _, r := range ratings {
		mean += r.Score
	}
	mean /= float64(len(ratings))
	for _, r := range ratings {
		var pred float64
		uf, vf := userF[r.User], itemF[r.Item]
		for k := range uf {
			pred += uf[k] * vf[k]
		}
		sse += (pred - r.Score) * (pred - r.Score)
		sst += (r.Score - mean) * (r.Score - mean)
	}
	if sse >= sst {
		t.Errorf("factorization no better than the mean: sse=%.2f sst=%.2f", sse, sst)
	}
}

func TestSolveFactorEmptyEntries(t *testing.T) {
	f, err := SolveFactor(nil, map[int64][]float64{}, 3, 0.1)
	if err != nil || len(f) != 3 {
		t.Errorf("empty solve = %v, %v", f, err)
	}
	for _, v := range f {
		if v != 0 {
			t.Error("empty solve should be zero vector")
		}
	}
}
