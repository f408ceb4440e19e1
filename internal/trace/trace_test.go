package trace

import (
	"math/rand"
	"testing"
)

// TestCalibrationMatchesTable1 locks the synthesis calibration to the
// paper's Table 1 within generous bands (the shapes matter, not the
// exact integers).
func TestCalibrationMatchesTable1(t *testing.T) {
	u := CanonicalUsage()
	cases := []struct {
		margin       SafetyMargin
		p50lo, p50hi float64
		p90lo, p90hi float64
	}{
		{MarginAggressive, 1, 4, 8, 40},    // paper: p50=2, p90=19
		{MarginModerate, 5, 18, 40, 110},   // paper: p50=10, p90=64
		{MarginCautious, 12, 35, 180, 460}, // paper: p50=20, p90=276
	}
	for _, c := range cases {
		d := NewLifetimeDist(u.Lifetimes(c.margin))
		if d.Len() < 100 {
			t.Fatalf("margin %v: only %d lifetimes", c.margin, d.Len())
		}
		if p50 := d.Percentile(50); p50 < c.p50lo || p50 > c.p50hi {
			t.Errorf("margin %v: p50 = %v, want in [%v, %v]", c.margin, p50, c.p50lo, c.p50hi)
		}
		if p90 := d.Percentile(90); p90 < c.p90lo || p90 > c.p90hi {
			t.Errorf("margin %v: p90 = %v, want in [%v, %v]", c.margin, p90, c.p90lo, c.p90hi)
		}
		if p10 := d.Percentile(10); p10 > 5 {
			t.Errorf("margin %v: p10 = %v, want <= 5 (paper: 1)", c.margin, p10)
		}
	}
}

// TestCalibrationMatchesTable2 locks the collected-memory figures to the
// paper's Table 2 bands.
func TestCalibrationMatchesTable2(t *testing.T) {
	u := CanonicalUsage()
	baseline := u.CollectedMemory(-1)
	if baseline < 0.22 || baseline > 0.30 {
		t.Errorf("baseline collected = %.3f, want ~0.26", baseline)
	}
	prev := baseline
	for _, m := range []SafetyMargin{MarginAggressive, MarginModerate, MarginCautious} {
		c := u.CollectedMemory(m)
		if c <= 0 || c > prev+1e-9 {
			t.Errorf("margin %v: collected %.3f not monotonically below %.3f", m, c, prev)
		}
		prev = c
	}
	// Aggressive harvesting loses almost nothing vs baseline (paper:
	// 25.9% vs 26.0%); cautious loses a few points (22.7%).
	if baseline-u.CollectedMemory(MarginAggressive) > 0.01 {
		t.Error("0.1% margin should collect nearly the baseline")
	}
	if baseline-u.CollectedMemory(MarginCautious) < 0.02 {
		t.Error("5% margin should sacrifice noticeable memory")
	}
}

func TestLifetimesOrderedByMargin(t *testing.T) {
	// Larger safety margins must yield longer median lifetimes.
	u := CanonicalUsage()
	p50 := func(m SafetyMargin) float64 {
		return NewLifetimeDist(u.Lifetimes(m)).Percentile(50)
	}
	if !(p50(MarginAggressive) <= p50(MarginModerate) && p50(MarginModerate) <= p50(MarginCautious)) {
		t.Error("median lifetime not monotone in safety margin")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Containers = 10
	cfg.Minutes = 200
	a := Synthesize(cfg)
	b := Synthesize(cfg)
	for i := range a.Series {
		for j := range a.Series[i] {
			if a.Series[i][j] != b.Series[i][j] {
				t.Fatalf("series differ at [%d][%d]", i, j)
			}
		}
	}
}

func TestLifetimeModelOnCraftedSeries(t *testing.T) {
	// Usage rises beyond the buffer at t=3 and t=7 -> two lifetimes of
	// 3 and 4 minutes (the final segment is censored).
	u := &Usage{Series: [][]float64{{0.50, 0.50, 0.49, 0.60, 0.60, 0.60, 0.60, 0.80, 0.80, 0.80}}}
	got := u.Lifetimes(0.05)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("lifetimes = %v, want [3 4]", got)
	}
	// A decreasing series never evicts (the container absorbs freed
	// memory).
	u2 := &Usage{Series: [][]float64{{0.9, 0.8, 0.7, 0.6, 0.5}}}
	if got := u2.Lifetimes(0.01); len(got) != 0 {
		t.Errorf("decreasing usage produced evictions: %v", got)
	}
}

func TestDistSampleWithinSupport(t *testing.T) {
	d := NewLifetimeDist([]float64{1, 2, 3, 10, 100})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s := d.Sample(rng)
		if s < 1 || s > 100 {
			t.Fatalf("sample %v outside support", s)
		}
	}
	if d.Percentile(0) != 1 || d.Percentile(100) != 100 {
		t.Error("percentile extremes wrong")
	}
}

func TestDistCDFMonotone(t *testing.T) {
	d := Lifetimes(RateHigh)
	xs := make([]float64, 61)
	for i := range xs {
		xs[i] = float64(i)
	}
	cdf := d.CDF(xs)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if cdf[60] <= cdf[0] {
		t.Error("CDF degenerate")
	}
}

func TestEmptyDist(t *testing.T) {
	var d *LifetimeDist
	if !d.Empty() || d.Len() != 0 {
		t.Error("nil dist should be empty")
	}
	e := NewLifetimeDist(nil)
	if !e.Empty() {
		t.Error("zero-sample dist should be empty")
	}
	if e.Sample(rand.New(rand.NewSource(1))) != 0 {
		t.Error("empty dist sample should be 0")
	}
}

func TestRateHelpers(t *testing.T) {
	if RateNone.Margin() != 0 {
		t.Error("none margin should be 0")
	}
	if RateHigh.Margin() != MarginAggressive || RateLow.Margin() != MarginCautious {
		t.Error("rate/margin mapping wrong")
	}
	if Lifetimes(RateNone) != nil {
		t.Error("RateNone should have no distribution")
	}
	for _, r := range []Rate{RateNone, RateLow, RateMedium, RateHigh} {
		if r.String() == "" {
			t.Error("missing String")
		}
	}
}
