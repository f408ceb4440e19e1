// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the index). Each benchmark runs its
// experiment sweep once per iteration and reports the headline numbers
// as custom metrics; the full-size sweeps with nicely formatted tables
// are available via `go run ./cmd/padobench -figure all` and
// `go run ./cmd/tracecdf`.
//
// Benchmarks run single repeats at the calibrated scale (60ms per paper
// minute — the time scale fixes the eviction-rate-to-transfer-time ratio
// and must not be changed independently of the bandwidth constants), so
// one full pass takes a few minutes of wall time.
package pado

import (
	"fmt"
	"testing"
	"time"

	"pado/internal/harness"
	"pado/internal/runtime"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// benchParams returns the single-repeat experiment base configuration.
func benchParams() harness.Params {
	return harness.Params{
		Scale:          vtime.NewScale(60 * time.Millisecond),
		TimeoutMinutes: 90,
		Size:           1.0,
		Seed:           11,
	}
}

// BenchmarkFigure1LifetimeCDFs regenerates the transient-container
// lifetime CDFs (Figure 1) from the synthesized trace.
func BenchmarkFigure1LifetimeCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := trace.Synthesize(trace.DefaultSynthConfig())
		for _, m := range []trace.SafetyMargin{trace.MarginAggressive, trace.MarginModerate, trace.MarginCautious} {
			d := trace.NewLifetimeDist(u.Lifetimes(m))
			if d.Len() == 0 {
				b.Fatal("no lifetimes derived")
			}
			if i == 0 {
				cdf := d.CDF([]float64{10, 30, 60})
				b.Logf("margin %.1f%%: CDF@10=%0.2f @30=%0.2f @60=%0.2f",
					float64(m)*100, cdf[0], cdf[1], cdf[2])
			}
		}
	}
}

// BenchmarkTable1LifetimePercentiles regenerates the lifetime percentile
// table (Table 1).
func BenchmarkTable1LifetimePercentiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := trace.CanonicalUsage()
		for _, m := range []trace.SafetyMargin{trace.MarginAggressive, trace.MarginModerate, trace.MarginCautious} {
			d := trace.NewLifetimeDist(u.Lifetimes(m))
			p10, p50, p90 := d.Percentile(10), d.Percentile(50), d.Percentile(90)
			if i == 0 {
				b.Logf("margin %.1f%%: p10=%.0f p50=%.0f p90=%.0f min", float64(m)*100, p10, p50, p90)
				b.ReportMetric(p50, fmt.Sprintf("p50_m%.1f%%", float64(m)*100))
			}
		}
	}
}

// BenchmarkTable2CollectedMemory regenerates the collected-idle-memory
// table (Table 2).
func BenchmarkTable2CollectedMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := trace.CanonicalUsage()
		baseline := u.CollectedMemory(-1)
		if i == 0 {
			b.Logf("baseline: %.1f%%", baseline*100)
			b.ReportMetric(baseline*100, "baseline_%")
		}
		for _, m := range []trace.SafetyMargin{trace.MarginAggressive, trace.MarginModerate, trace.MarginCautious} {
			c := u.CollectedMemory(m)
			if c <= 0 || c > baseline {
				b.Fatalf("collected memory %.3f out of range (baseline %.3f)", c, baseline)
			}
			if i == 0 {
				b.Logf("margin %.1f%%: %.1f%%", float64(m)*100, c*100)
			}
		}
	}
}

// evictionSweep runs one of Figures 5-7 and reports each engine's JCT at
// the high eviction rate plus the Pado-vs-baseline speedups.
func evictionSweep(b *testing.B, w harness.Workload) {
	for i := 0; i < b.N; i++ {
		t := harness.EvictionSweep(w, benchParams())
		if i > 0 {
			continue
		}
		b.Log("\n" + t.String())
		at := func(e harness.Engine, r trace.Rate) float64 {
			out, ok := t.Get(func(p harness.Params) bool { return p.Engine == e && p.Rate == r })
			if !ok {
				b.Fatalf("missing outcome for %v/%v", e, r)
			}
			return out.JCTMinutes
		}
		pado := at(harness.EnginePado, trace.RateHigh)
		spark := at(harness.EngineSpark, trace.RateHigh)
		ck := at(harness.EngineSparkCheckpoint, trace.RateHigh)
		b.ReportMetric(pado, "pado_high_min")
		b.ReportMetric(spark/pado, "speedup_vs_spark")
		b.ReportMetric(ck/pado, "speedup_vs_ck")
	}
}

// BenchmarkFigure5ALSEvictionRates regenerates Figure 5.
func BenchmarkFigure5ALSEvictionRates(b *testing.B) { evictionSweep(b, harness.WorkloadALS) }

// BenchmarkFigure6MLREvictionRates regenerates Figure 6.
func BenchmarkFigure6MLREvictionRates(b *testing.B) { evictionSweep(b, harness.WorkloadMLR) }

// BenchmarkFigure7MREvictionRates regenerates Figure 7.
func BenchmarkFigure7MREvictionRates(b *testing.B) { evictionSweep(b, harness.WorkloadMR) }

// BenchmarkFigure8ReservedRatio regenerates Figure 8: JCT with 3-7
// reserved containers under the high eviction rate.
func BenchmarkFigure8ReservedRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := harness.Figure8(benchParams())
		if i > 0 {
			continue
		}
		b.Log("\n" + t.String())
		for _, w := range []harness.Workload{harness.WorkloadALS, harness.WorkloadMLR, harness.WorkloadMR} {
			at := func(e harness.Engine, reserved int) (float64, bool) {
				out, ok := t.Get(func(p harness.Params) bool {
					return p.Engine == e && p.Workload == w && p.Reserved == reserved
				})
				return out.JCTMinutes, ok
			}
			if p3, ok := at(harness.EnginePado, 3); ok {
				if p7, ok := at(harness.EnginePado, 7); ok && p7 > 0 {
					b.ReportMetric(p3/p7, fmt.Sprintf("%s_pado_slowdown_3v7", w))
				}
			}
		}
	}
}

// BenchmarkFigure9Scalability regenerates Figure 9: Pado's JCT at a
// fixed 8:1 transient:reserved ratio.
func BenchmarkFigure9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := harness.Figure9(benchParams())
		if i > 0 {
			continue
		}
		b.Log("\n" + t.String())
		for _, w := range []harness.Workload{harness.WorkloadALS, harness.WorkloadMLR, harness.WorkloadMR} {
			small, ok1 := t.Get(func(p harness.Params) bool { return p.Workload == w && p.Transient == 24 })
			large, ok2 := t.Get(func(p harness.Params) bool { return p.Workload == w && p.Transient == 56 })
			if ok1 && ok2 && large.JCTMinutes > 0 {
				b.ReportMetric(small.JCTMinutes/large.JCTMinutes, fmt.Sprintf("%s_scaling_27v63", w))
			}
		}
	}
}

// ablation runs Pado's MLR under the high eviction rate with a runtime
// configuration tweak and reports the JCT ratio vs the default.
func ablation(b *testing.B, w harness.Workload, mutate func(*runtime.Config)) {
	for i := 0; i < b.N; i++ {
		base := benchParams()
		base.Engine = harness.EnginePado
		base.Workload = w
		base.Rate = trace.RateHigh
		def, err := harness.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		mod := base
		prev := mod.PadoConfig
		mod.PadoConfig = func(cfg *runtime.Config) {
			if prev != nil {
				prev(cfg)
			}
			mutate(cfg)
		}
		abl, err := harness.Run(mod)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("default: %s", def)
			b.Logf("ablated: %s", abl)
			if def.JCTMinutes > 0 {
				b.ReportMetric(abl.JCTMinutes/def.JCTMinutes, "ablated_over_default")
			}
		}
	}
}

// BenchmarkAblationPartialAggregation disables §3.2.7 partial
// aggregation on MLR, the workload it helps most.
func BenchmarkAblationPartialAggregation(b *testing.B) {
	ablation(b, harness.WorkloadMLR, func(cfg *runtime.Config) { cfg.DisablePartialAggregation = true })
}

// BenchmarkAblationInputCaching disables §3.2.7 task input caching on
// ALS, whose iterations re-read grouped rating data.
func BenchmarkAblationInputCaching(b *testing.B) {
	ablation(b, harness.WorkloadALS, func(cfg *runtime.Config) { cfg.DisableCache = true })
}
