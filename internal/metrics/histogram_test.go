package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.String() != "empty" {
		t.Fatalf("zero histogram snapshot: %+v", s)
	}
	h.ObserveDuration(1 * time.Millisecond)
	h.ObserveDuration(2 * time.Millisecond)
	h.ObserveDuration(40 * time.Millisecond)
	h.Observe(-5) // clamps to 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0 {
		t.Errorf("min = %d, want 0 (clamped negative)", s.Min)
	}
	if s.Max != int64(40*time.Millisecond) {
		t.Errorf("max = %d", s.Max)
	}
	if got := s.Mean(); got != (int64(43*time.Millisecond))/4 {
		t.Errorf("mean = %d", got)
	}
	// p50 falls in the bucket holding the 2nd observation (1ms or 2ms);
	// its upper bound must be >= 1ms and < 40ms.
	if q := s.Quantile(0.5); q < int64(1*time.Millisecond) || q >= int64(40*time.Millisecond) {
		t.Errorf("p50 = %v", time.Duration(q))
	}
	// p100 clamps to max.
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("p100 = %d, want max %d", q, s.Max)
	}
}

func TestHistogramBuckets(t *testing.T) {
	if HistBound(0) != 1<<16 {
		t.Errorf("bucket 0 bound = %d", HistBound(0))
	}
	if bucketOf(0) != 0 || bucketOf(1<<16) != 0 || bucketOf(1<<16+1) != 1 {
		t.Errorf("bucketOf boundary wrong: %d %d %d", bucketOf(0), bucketOf(1<<16), bucketOf(1<<16+1))
	}
	if bucketOf(1<<62) != HistBuckets-1 {
		t.Errorf("overflow bucket = %d", bucketOf(1<<62))
	}
	var h Histogram
	h.Observe(1 << 62)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Index != HistBuckets-1 {
		t.Fatalf("overflow snapshot buckets = %+v", s.Buckets)
	}
}

// TestQuantileInterpBoundaries pins the interpolating quantile at
// exact bucket boundaries: when the rank lands exactly on a bucket's
// cumulative count, the estimate is exactly that bucket's upper bound;
// when every deciding observation shares one value, the Min/Max clamp
// makes the estimate exact.
func TestQuantileInterpBoundaries(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}

	// 10 observations in bucket 0, 10 in bucket 1: p50's rank (10)
	// falls exactly on bucket 0's cumulative count, so the estimate is
	// exactly HistBound(0). p100 is exactly the max.
	for i := 0; i < 10; i++ {
		h.Observe(1 << 10) // bucket 0 (bound 1<<16)
		h.Observe(1 << 17) // bucket 1 (bound 1<<17)
	}
	if q := h.Quantile(0.5); q != HistBound(0) {
		t.Errorf("p50 = %d, want exact bucket bound %d", q, HistBound(0))
	}
	if q := h.Quantile(1); q != 1<<17 {
		t.Errorf("p100 = %d, want max %d", q, int64(1<<17))
	}
	// p75: rank 15 is 5/10 into bucket 1, which spans [max(1<<16,
	// Min)=1<<16, min(1<<17, Max)=1<<17]; halfway = 3<<15... but the
	// Max clamp tightens hi to the observed max (1<<17), so the
	// estimate is lo + 0.5*(hi-lo).
	wantP75 := int64(1<<16) + (int64(1<<17)-int64(1<<16))/2
	if q := h.Quantile(0.75); q != wantP75 {
		t.Errorf("p75 = %d, want %d", q, wantP75)
	}

	// Single-valued histogram: clamp makes every quantile exact.
	var one Histogram
	for i := 0; i < 5; i++ {
		one.Observe(12345)
	}
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		if q := one.Quantile(p); q != 12345 {
			t.Errorf("single-valued p%.0f = %d, want 12345", p*100, q)
		}
	}

	// Overflow bucket: bounds collapse to [Min, Max] of what landed
	// there.
	var ov Histogram
	ov.Observe(1 << 61)
	if q := ov.Quantile(0.99); q != 1<<61 {
		t.Errorf("overflow p99 = %d, want %d", q, int64(1)<<61)
	}
}

func TestHistogramRegistry(t *testing.T) {
	var j Job
	h1 := j.Histogram("stage0.latency")
	h2 := j.Histogram("stage0.latency")
	if h1 != h2 {
		t.Fatal("same name minted two histograms")
	}
	h1.Observe(100)
	j.Histogram("stage1.latency").Observe(200)
	var names []string
	j.EachHistogram(func(name string, s HistSnapshot) {
		names = append(names, name)
		if s.Count != 1 {
			t.Errorf("%s count = %d", name, s.Count)
		}
	})
	if len(names) != 2 || names[0] != "stage0.latency" || names[1] != "stage1.latency" {
		t.Errorf("EachHistogram order: %v", names)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0 || s.Max != 7999 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
	var n int64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != 8000 {
		t.Errorf("bucket sum = %d", n)
	}
}

func TestSnapshotStringIncludesCacheAndNamed(t *testing.T) {
	var j Job
	j.Counter(NameCacheHits).Store(7)
	j.Counter(NameCacheMisses).Store(3)
	j.Counter("event_queue_overflow").Add(2)
	j.Counter("agg_flushes").Add(5)
	out := j.Snapshot(time.Second, false).String()
	for _, want := range []string{"cache=7/10", "agg_flushes=5", "event_queue_overflow=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q: %s", want, out)
		}
	}
	// Named counters render sorted, so the output is deterministic.
	if strings.Index(out, "agg_flushes") > strings.Index(out, "event_queue_overflow") {
		t.Errorf("named counters not sorted: %s", out)
	}
}
