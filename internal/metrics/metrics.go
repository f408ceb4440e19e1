// Package metrics collects per-job counters used by the experiment
// harness: task launches and relaunches (the paper's "ratio of relaunched
// tasks to original tasks"), data movement volumes, and eviction counts.
//
// Job is a named-counter registry. The paper-facing counters remain
// addressable as plain struct fields (Job.Evictions.Add(1)) — they are
// thin accessors over the same storage the registry exposes by name —
// while any subsystem (the obs tracing layer, engine extensions, tests)
// can mint additional counters at runtime with Job.Counter("name").
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a single monotonically written int64 counter, safe for
// concurrent update. The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store overwrites the value (tests and harness aggregation).
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Builtin counter names, usable with Job.Counter. They identify the
// struct fields of Job, in declaration order.
const (
	NameOriginalTasks     = "original_tasks"
	NameRelaunchedTasks   = "relaunched_tasks"
	NameEvictions         = "evictions"
	NameBytesPushed       = "bytes_pushed"
	NameBytesFetched      = "bytes_fetched"
	NameBytesCheckpointed = "bytes_checkpointed"
	NameCacheHits         = "cache_hits"
	NameCacheMisses       = "cache_misses"
)

// Data-plane connection-pool counter names. These are dynamically minted
// (not struct fields): the pool reports how often a data-plane operation
// had to dial a fresh simnet connection versus reusing a pooled one, so
// reports can show the reuse rate alongside the byte counters.
const (
	NameConnDials  = "conn_dials"
	NameConnReuses = "conn_reuses"
)

// Failure-handling-plane counter names (dynamically minted). The
// heartbeat/suspicion counters come from the master's failure detector;
// the breaker and retry counters from the per-destination RPC policy
// layered over the connection pool. Retries are further broken down by
// cause under "rpc_retries_<cause>" (e.g. rpc_retries_push).
const (
	NameHeartbeatsSent    = "heartbeats_sent"
	NameHeartbeatsMissed  = "heartbeats_missed"
	NameSuspicionsRaised  = "suspicions_raised"
	NameSuspicionsCleared = "suspicions_cleared"
	NameNodesDeclaredDead = "nodes_declared_dead"
	NameBreakerOpens      = "breaker_opens"
	NameRPCRetries        = "rpc_retries"
	NameRPCBackoffNS      = "rpc_backoff_wait_ns"
	// NameRPCDeadlineHits is never counted: the runtime sets no
	// per-attempt deadlines (heartbeats find hung peers). The name stays
	// because bench/ledger reads it for one of its rows, which reads 0.
	NameRPCDeadlineHits = "rpc_deadline_hits"

	// NameRPCRetryCausePrefix prefixes the per-cause retry breakdown:
	// the op kind that needed the retry ("push", "fetch", "store",
	// "collect", "progress").
	NameRPCRetryCausePrefix = "rpc_retries_"
)

// Incremental re-execution counter names (dynamically minted on the job
// registry). The probe pair counts commit-store lookups at submission
// (stage- and task-level together); stages_skipped / tasks_skipped count
// work served from the store instead of launched; compute_avoided_tasks
// counts the tasks a skipped stage would have launched (fragment tasks
// plus receivers). The byte pair measures CAS traffic: served covers
// chunk reads (skipped-stage fetches and skipped-task pulls), written
// covers chunk writes on the commit path.
const (
	NameCommitProbes        = "commit_probes"
	NameCommitHits          = "commit_hits"
	NameCommitMisses        = "commit_misses"
	NameCommitWrites        = "commit_writes"
	NameStagesSkipped       = "stages_skipped"
	NameTasksSkipped        = "tasks_skipped"
	NameComputeAvoidedTasks = "compute_avoided_tasks"
	NameCASBytesServed      = "cas_bytes_served"
	NameCASBytesWritten     = "cas_bytes_written"
)

// Control-plane scheduler counter names (dynamically minted on the
// fleet registry). sched_rounds counts scheduling passes (one per
// handled master event); sched_tasks_scanned counts tasks the assign
// pass actually examined, so scanned/rounds exposes the per-event
// scheduling cost the incremental scheduler keeps proportional to
// changes; slot_index_hits counts saturated rounds answered by the
// per-kind free-slot index without scanning the executor pool.
const (
	NameSchedRounds       = "sched_rounds"
	NameSchedTasksScanned = "sched_tasks_scanned"
	NameSlotIndexHits     = "slot_index_hits"
)

// Job aggregates counters for one job run. All fields are safe for
// concurrent update, and the zero value is ready to use.
type Job struct {
	// OriginalTasks counts distinct tasks of the physical plan that
	// were launched at least once.
	OriginalTasks Counter
	// RelaunchedTasks counts task launches beyond each task's first
	// attempt (recomputations and eviction relaunches).
	RelaunchedTasks Counter
	// Evictions counts transient container evictions observed while
	// the job ran.
	Evictions Counter
	// BytesPushed counts payload bytes pushed from transient to
	// reserved executors (Pado's escape path).
	BytesPushed Counter
	// BytesFetched counts payload bytes pulled from stage outputs,
	// shuffle pulls, and broadcast fetches.
	BytesFetched Counter
	// BytesCheckpointed counts payload bytes written to stable storage
	// (Spark-checkpoint only).
	BytesCheckpointed Counter
	// CacheHits and CacheMisses count task-input-cache lookups.
	CacheHits   Counter
	CacheMisses Counter

	mu     sync.Mutex
	named  map[string]*Counter
	hists  map[string]*Histogram
	gauges map[string]*Gauge
}

// builtin maps registry names onto the struct fields.
func (j *Job) builtin(name string) *Counter {
	switch name {
	case NameOriginalTasks:
		return &j.OriginalTasks
	case NameRelaunchedTasks:
		return &j.RelaunchedTasks
	case NameEvictions:
		return &j.Evictions
	case NameBytesPushed:
		return &j.BytesPushed
	case NameBytesFetched:
		return &j.BytesFetched
	case NameBytesCheckpointed:
		return &j.BytesCheckpointed
	case NameCacheHits:
		return &j.CacheHits
	case NameCacheMisses:
		return &j.CacheMisses
	}
	return nil
}

// Counter returns the counter registered under name, minting it on first
// use. Builtin names resolve to the corresponding struct field, so
// Counter(NameEvictions) and the Evictions field are the same counter.
func (j *Job) Counter(name string) *Counter {
	if c := j.builtin(name); c != nil {
		return c
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	c, ok := j.named[name]
	if !ok {
		if j.named == nil {
			j.named = make(map[string]*Counter)
		}
		c = new(Counter)
		j.named[name] = c
	}
	return c
}

// builtinNames lists the builtin counters in declaration order.
var builtinNames = []string{
	NameOriginalTasks, NameRelaunchedTasks, NameEvictions,
	NameBytesPushed, NameBytesFetched, NameBytesCheckpointed,
	NameCacheHits, NameCacheMisses,
}

// Each calls fn for every registered counter: builtins first in
// declaration order, then dynamically minted counters sorted by name.
func (j *Job) Each(fn func(name string, value int64)) {
	for _, name := range builtinNames {
		fn(name, j.builtin(name).Load())
	}
	j.mu.Lock()
	names := make([]string, 0, len(j.named))
	for name := range j.named {
		names = append(names, name)
	}
	counters := make([]*Counter, len(names))
	sort.Strings(names)
	for i, name := range names {
		counters[i] = j.named[name]
	}
	j.mu.Unlock()
	for i, name := range names {
		fn(name, counters[i].Load())
	}
}

// RelaunchRatio returns relaunched/original, the paper's Figures 5-7
// lower panels.
func (j *Job) RelaunchRatio() float64 {
	o := j.OriginalTasks.Load()
	if o == 0 {
		return 0
	}
	return float64(j.RelaunchedTasks.Load()) / float64(o)
}

// Snapshot is an immutable copy of the counters plus the measured job
// completion time.
type Snapshot struct {
	JCT               time.Duration
	TimedOut          bool
	OriginalTasks     int64
	RelaunchedTasks   int64
	Evictions         int64
	BytesPushed       int64
	BytesFetched      int64
	BytesCheckpointed int64
	CacheHits         int64
	CacheMisses       int64
	// Named holds dynamically minted counters (nil when none were
	// registered).
	Named map[string]int64
}

// Snapshot captures the current counter values.
func (j *Job) Snapshot(jct time.Duration, timedOut bool) Snapshot {
	s := Snapshot{
		JCT:               jct,
		TimedOut:          timedOut,
		OriginalTasks:     j.OriginalTasks.Load(),
		RelaunchedTasks:   j.RelaunchedTasks.Load(),
		Evictions:         j.Evictions.Load(),
		BytesPushed:       j.BytesPushed.Load(),
		BytesFetched:      j.BytesFetched.Load(),
		BytesCheckpointed: j.BytesCheckpointed.Load(),
		CacheHits:         j.CacheHits.Load(),
		CacheMisses:       j.CacheMisses.Load(),
	}
	j.mu.Lock()
	if len(j.named) > 0 {
		s.Named = make(map[string]int64, len(j.named))
		for name, c := range j.named {
			s.Named[name] = c.Load()
		}
	}
	j.mu.Unlock()
	return s
}

// RelaunchRatio of the snapshot.
func (s Snapshot) RelaunchRatio() float64 {
	if s.OriginalTasks == 0 {
		return 0
	}
	return float64(s.RelaunchedTasks) / float64(s.OriginalTasks)
}

// String summarizes the snapshot on one line: every builtin counter
// (including the cache hit/miss pair) plus any named counters, sorted
// by name so the rendering is deterministic.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jct=%v timedOut=%v tasks=%d relaunched=%d (%.0f%%) evictions=%d pushed=%dB fetched=%dB ckpt=%dB cache=%d/%d",
		s.JCT, s.TimedOut, s.OriginalTasks, s.RelaunchedTasks, s.RelaunchRatio()*100,
		s.Evictions, s.BytesPushed, s.BytesFetched, s.BytesCheckpointed,
		s.CacheHits, s.CacheHits+s.CacheMisses)
	if len(s.Named) > 0 {
		names := make([]string, 0, len(s.Named))
		for name := range s.Named {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, s.Named[name])
		}
	}
	return b.String()
}
