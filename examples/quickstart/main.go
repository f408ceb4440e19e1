// Quickstart: a word-count-style job on the Pado engine.
//
// It builds the simplest interesting pipeline — Read, ParDo, keyed
// combine — runs it on a small simulated cluster WITH aggressive
// transient-container evictions, and shows that the result is exact
// anyway: the reduce operator runs on reserved containers and every map
// output escapes eviction by being pushed there as soon as it exists.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"pado"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/vtime"
)

var docs = []string{
	"the quick brown fox jumps over the lazy dog",
	"the dog barks and the fox runs",
	"pado harnesses transient resources in the datacenter",
	"evictions occur but the answer stays exact",
	"the quick fox likes the quick dog",
}

func main() {
	// A source with one partition per document; each record is a line.
	src := &dataflow.FuncSource{
		Partitions: len(docs),
		Gen: func(p int) (int, func() pado.Record) {
			return 1, func() pado.Record { return pado.Record{Value: docs[p]} }
		},
	}
	lineCoder := data.KVCoder{K: data.NilCoder, V: data.StringCoder}
	countCoder := data.KVCoder{K: data.StringCoder, V: data.Int64Coder}

	p := pado.NewPipeline()
	words := p.Read("read-docs", src, lineCoder).
		ParDo("split", dataflow.DoFunc(func(r pado.Record, _ dataflow.SideValues, emit dataflow.Emit) error {
			for _, w := range strings.Fields(r.Value.(string)) {
				emit(pado.KV(w, int64(1)))
			}
			return nil
		}), countCoder)
	words.CombinePerKey("count", pado.SumInt64Fn{}, countCoder,
		dataflow.WithAccumulatorCoder(countCoder))

	// A small cluster under the paper's HIGH eviction rate: transient
	// containers live only a couple of (scaled) minutes.
	cl, err := pado.NewCluster(pado.ClusterConfig{
		Transient: 4,
		Reserved:  2,
		Lifetimes: pado.EvictionLifetimes(pado.EvictionHigh),
		Scale:     vtime.NewScale(50 * time.Millisecond),
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A tracer records the run's structured event stream; at the end we
	// print the per-stage timeline it captured.
	tracer := pado.NewTracer()
	res, err := pado.Run(context.Background(), cl, p, pado.Config{Tracer: tracer})
	if err != nil {
		log.Fatal(err)
	}

	var out []pado.Record
	for _, recs := range res.Outputs {
		out = recs
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value.(int64) != out[j].Value.(int64) {
			return out[i].Value.(int64) > out[j].Value.(int64)
		}
		return out[i].Key.(string) < out[j].Key.(string)
	})
	fmt.Println("word counts (computed under transient-container evictions):")
	for _, r := range out {
		fmt.Printf("  %-12s %d\n", r.Key, r.Value)
	}
	fmt.Printf("\njct=%v evictions=%d relaunched tasks=%d\n",
		res.Metrics.JCT, res.Metrics.Evictions, res.Metrics.RelaunchedTasks)

	fmt.Println()
	if err := pado.WriteTimeline(os.Stdout, tracer.Events(), vtime.Scale{}); err != nil {
		log.Fatal(err)
	}
}
