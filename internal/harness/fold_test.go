//go:build goexperiment.synctest

package harness

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"testing/synctest"

	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/trace"
)

// Counters that repeat an event kind are folded from the event stream
// through one table (obs: Kind.Counter), so a job's snapshot and its trace
// cannot disagree. The package's one asynctimerchan line, which the bubble
// needs, is in bubble_test.go.

// tableCounters maps every counter of the kind-to-counter table (the kinds
// not exported as obs.<kind>) to the number of its events in evs.
func tableCounters(evs []obs.Event) map[string]int64 {
	n := make(map[string]int64)
	for k := obs.Kind(1); k.Counter() != ""; k++ {
		if !strings.HasPrefix(k.Counter(), "obs.") {
			n[k.Counter()] = 0
		}
	}
	for _, ev := range evs {
		if _, ok := n[ev.Kind.Counter()]; ok {
			n[ev.Kind.Counter()]++
		}
	}
	return n
}

// counterOf reads one counter of a snapshot by name.
func counterOf(s metrics.Snapshot, name string) int64 {
	switch name {
	case metrics.NameCacheHits:
		return s.CacheHits
	case metrics.NameCacheMisses:
		return s.CacheMisses
	}
	return s.Named[name]
}

// runTraced runs p traced inside a bubble; the caller holds one P.
func runTraced(t *testing.T, p Params) Outcome {
	t.Helper()
	p.ForceTrace = true
	var out Outcome
	var err error
	synctest.Run(func() { out, err = Run(p) })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBubbleCountersFoldTheEventStream is the fold invariant: on every
// engine, for MR and MLR with and without evictions, each table counter in
// the job's snapshot equals the number of its kinds in the run's events.
// A run that times out (Spark-checkpoint MLR at high does on this cell)
// is checked all the same: its snapshot is taken as it is abandoned.
func TestBubbleCountersFoldTheEventStream(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	for _, eng := range AllEngines {
		for _, w := range []Workload{WorkloadMR, WorkloadMLR} {
			for _, rate := range []trace.Rate{trace.RateNone, trace.RateHigh} {
				t.Run(fmt.Sprintf("%s-%s-%s", eng, w, rate), func(t *testing.T) {
					p := tinyParams()
					p.Engine, p.Workload, p.Rate = eng, w, rate
					out := runTraced(t, p)
					t.Logf("timed out %v, relaunch ratio %.4f, evictions %d, cache %d/%d",
						out.TimedOut, out.RelaunchRatio, out.Evictions, out.Metrics.CacheHits, out.Metrics.CacheHits+out.Metrics.CacheMisses)
					for name, want := range tableCounters(out.Events) {
						if got := counterOf(out.Metrics, name); got != want {
							t.Errorf("%s = %d, the event stream holds %d", name, got, want)
						}
					}
				})
			}
		}
	}
}

// TestBubbleFaultFreeCounters pins what the cache and detector counters
// mean on the default cell at none. Every cache lookup is counted once, a
// lookup that waited on another slot's fill is a hit, and the misses are
// exactly the fills. MR caches nothing.
// Over its 5 iterations MLR's 160 tasks look up their training partition
// and the model broadcast once each: 800 reads on 160 fills leave 640
// resident hits, and 800 broadcast lookups on 200 fills (one per executor
// per iteration) leave 600 waits on a sibling slot's fill. ALS shares no
// fill. A broadcast miss is one broadcast fetch, so those counts agree.
// heartbeats_missed counts silences (a node overdue by two heartbeat
// periods at a detector tick), not beats, so no workload counts one here,
// and no suspicion is raised.
func TestBubbleFaultFreeCounters(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	for _, c := range []struct {
		w                      Workload
		resident, shared, fill int
	}{
		{WorkloadMR, 0, 0, 0},
		{WorkloadMLR, 640, 600, 360},
		{WorkloadALS, 220, 0, 260},
	} {
		t.Run(c.w.String(), func(t *testing.T) {
			out := runTraced(t, Params{Engine: EnginePado, Workload: c.w, Rate: trace.RateNone})
			if out.TimedOut {
				t.Fatal("timed out")
			}
			var resident, shared, bcastMiss, bcastFetch int
			for _, ev := range out.Events {
				switch {
				case ev.Kind == obs.CacheHit && strings.HasSuffix(ev.Note, " resident"):
					resident++
				case ev.Kind == obs.CacheHit && strings.HasSuffix(ev.Note, " shared"):
					shared++
				case ev.Kind == obs.CacheMiss && ev.Note == "broadcast":
					bcastMiss++
				case ev.Kind == obs.FetchStarted && ev.Note == "broadcast":
					bcastFetch++
				}
			}
			s := out.Metrics
			t.Logf("%d lookups: %d resident, %d shared, %d fills (%d broadcast)",
				s.CacheHits+s.CacheMisses, resident, shared, s.CacheMisses, bcastMiss)
			if int(s.CacheHits) != resident+shared || bcastMiss != bcastFetch {
				t.Errorf("%d hits of %d resident + %d shared; %d broadcast misses for %d broadcast fetches",
					s.CacheHits, resident, shared, bcastMiss, bcastFetch)
			}
			if resident != c.resident || shared != c.shared || int(s.CacheMisses) != c.fill {
				t.Errorf("resident/shared/fills %d/%d/%d, want %d/%d/%d",
					resident, shared, s.CacheMisses, c.resident, c.shared, c.fill)
			}
			for _, name := range []string{metrics.NameHeartbeatsMissed, metrics.NameSuspicionsRaised} {
				if n := s.Named[name]; n != 0 {
					t.Errorf("%s = %d in a fault-free run, want 0", name, n)
				}
			}
		})
	}
}
