package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"pado/internal/data"
	"pado/internal/dataflow"
)

// MRConfig sizes the page-view aggregation workload (the stand-in for the
// paper's 280GB Wikipedia page-view dump: hourly per-document view counts
// summed per document over the whole period).
type MRConfig struct {
	Partitions   int
	LinesPerPart int
	Docs         int
	Seed         int64
	ReducePar    int // informational; the engine config decides
	HeavyDocSkew float64

	// DeltaFrac marks the leading ceil(DeltaFrac*Partitions) partitions
	// dirty: their content (and partition fingerprint) also depends on
	// DeltaSalt, so rerunning with a different salt simulates an
	// incremental input update — that fraction of the input changed, the
	// rest byte-identical. Zero leaves every partition clean. Used by the
	// delta-rerun experiments against the commit store (DESIGN.md §14).
	DeltaFrac float64
	// DeltaSalt versions the dirty partitions' content.
	DeltaSalt int64
}

// dirty reports whether partition p is in the delta window.
func (cfg MRConfig) dirty(p int) bool {
	return float64(p) < cfg.DeltaFrac*float64(cfg.Partitions)
}

// partSeed is the partition's generator seed; dirty partitions fold in
// the salt so their records and fingerprints change with it.
func (cfg MRConfig) partSeed(p int) int64 {
	s := cfg.Seed + int64(p)*7919
	if cfg.dirty(p) {
		s += 1 + cfg.DeltaSalt
	}
	return s
}

// DefaultMRConfig returns a laptop-scale MR workload.
func DefaultMRConfig() MRConfig {
	return MRConfig{Partitions: 80, LinesPerPart: 3000, Docs: 20000, Seed: 11}
}

// MRSource generates the synthetic page-view log: each line is
// "doc<id> <count>", Zipf-skewed over documents like real page views. A
// partition's lines are generated one at a time as its reader asks.
func MRSource(cfg MRConfig) dataflow.Source {
	return &dataflow.FuncSource{
		Partitions: cfg.Partitions,
		Gen: func(p int) (int, func() data.Record) {
			rng := rand.New(rand.NewSource(cfg.partSeed(p)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Docs-1))
			var line []byte
			return cfg.LinesPerPart, func() data.Record {
				doc := zipf.Uint64()
				count := rng.Intn(1000)
				line = appendMRLine(line[:0], doc, count)
				return data.Record{Value: string(line)}
			}
		},
		// The fingerprint names everything the generator folds into one
		// partition, so identical content across runs fingerprints
		// identically and a salted dirty partition does not.
		Fingerprint: func(p int) string {
			return fmt.Sprintf("mr/%d/%d/%d/%d", cfg.LinesPerPart, cfg.Docs, p, cfg.partSeed(p))
		},
	}
}

// appendMRLine appends the log line fmt.Sprintf("doc%07d %d", doc, count)
// to b without going through fmt.
func appendMRLine(b []byte, doc uint64, count int) []byte {
	b = append(b, "doc"...)
	for w := uint64(1000000); w > doc && w > 1; w /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, doc, 10)
	b = append(b, ' ')
	return strconv.AppendInt(b, int64(count), 10)
}

// mrParseFn parses one log line and emits (doc, count).
type mrParseFn struct{}

func (mrParseFn) Process(r data.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
	line := r.Value.(string)
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return fmt.Errorf("workloads: malformed line %q", line)
	}
	n, err := strconv.ParseInt(line[sp+1:], 10, 64)
	if err != nil {
		return err
	}
	emit(data.KV(line[:sp], n))
	return nil
}

// MR builds the Map-Reduce pipeline of Figure 3(a): Read -> Map (parse)
// -> Reduce (sum per document).
func MR(cfg MRConfig) *dataflow.Pipeline {
	p := dataflow.NewPipeline()
	lines := p.Read("read-pageviews", MRSource(cfg), LineCoder)
	counts := lines.ParDo("parse", mrParseFn{}, CountCoder)
	counts.CombinePerKey("sum-views", dataflow.SumInt64Fn{}, CountCoder,
		dataflow.WithAccumulatorCoder(CountCoder))
	return p
}

// MRReference computes the expected per-document sums sequentially.
func MRReference(cfg MRConfig) map[string]int64 {
	src := MRSource(cfg).(*dataflow.FuncSource)
	out := make(map[string]int64)
	for p := 0; p < cfg.Partitions; p++ {
		lines, next := src.Gen(p)
		for i := 0; i < lines; i++ {
			line := next().Value.(string)
			sp := strings.IndexByte(line, ' ')
			n, _ := strconv.ParseInt(line[sp+1:], 10, 64)
			out[line[:sp]] += n
		}
	}
	return out
}
