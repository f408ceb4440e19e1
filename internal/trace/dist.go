package trace

import (
	"math/rand"
	"sort"
	"sync"
)

// LifetimeDist is an empirical transient-container lifetime distribution
// in minutes, sampled by inverse transform.
type LifetimeDist struct {
	// sorted lifetime samples, minutes
	samples []float64
}

// NewLifetimeDist builds a distribution from lifetime samples (minutes).
func NewLifetimeDist(samples []float64) *LifetimeDist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &LifetimeDist{samples: s}
}

// Empty reports whether the distribution has no samples.
func (d *LifetimeDist) Empty() bool { return d == nil || len(d.samples) == 0 }

// Len returns the sample count.
func (d *LifetimeDist) Len() int {
	if d == nil {
		return 0
	}
	return len(d.samples)
}

// Sample draws a lifetime in minutes using rng.
func (d *LifetimeDist) Sample(rng *rand.Rand) float64 {
	if d.Empty() {
		return 0
	}
	// Interpolated inverse CDF.
	return d.Percentile(rng.Float64() * 100)
}

// Percentile returns the p-th percentile lifetime (0..100), linearly
// interpolated between samples.
func (d *LifetimeDist) Percentile(p float64) float64 {
	if d.Empty() {
		return 0
	}
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	pos := p / 100 * float64(len(d.samples)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(d.samples) {
		return d.samples[len(d.samples)-1]
	}
	return d.samples[i]*(1-frac) + d.samples[i+1]*frac
}

// CDF returns the empirical CDF evaluated at the given lifetimes
// (minutes): the fraction of samples <= x.
func (d *LifetimeDist) CDF(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(sort.SearchFloat64s(d.samples, x+1e-9)) / float64(len(d.samples))
	}
	return out
}

var (
	canonOnce  sync.Once
	canonUsage *Usage
	canonDists map[Rate]*LifetimeDist
)

func canonical() {
	canonOnce.Do(func() {
		canonUsage = Synthesize(DefaultSynthConfig())
		canonDists = map[Rate]*LifetimeDist{
			RateLow:    NewLifetimeDist(canonUsage.Lifetimes(MarginCautious)),
			RateMedium: NewLifetimeDist(canonUsage.Lifetimes(MarginModerate)),
			RateHigh:   NewLifetimeDist(canonUsage.Lifetimes(MarginAggressive)),
		}
	})
}

// Lifetimes returns the canonical lifetime distribution for an eviction
// rate, derived once from the calibrated default synthesis. RateNone
// returns nil (no evictions).
func Lifetimes(rate Rate) *LifetimeDist {
	if rate == RateNone {
		return nil
	}
	canonical()
	return canonDists[rate]
}

// CanonicalUsage returns the calibrated synthesized usage series used for
// the trace-analysis figures.
func CanonicalUsage() *Usage {
	canonical()
	return canonUsage
}
