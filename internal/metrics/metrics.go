// Package metrics collects per-job counters used by the experiment
// harness: task launches and relaunches (the paper's "ratio of relaunched
// tasks to original tasks"), data movement volumes, and eviction counts.
//
// Job is a registry of named counters: each counter has one name, is
// minted on first use by Job.Counter(name), and is written in one place.
// Counters that repeat an event kind are not written by hand at all: the
// obs layer folds every emitted event into its buffer's registry through
// one table from kind to counter name (DESIGN §12). Snapshot promotes the
// paper's counters to plain fields for the figures and the ledger.
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

// The paper's counter names, which Snapshot promotes to its fields.
const (
	// NameOriginalTasks counts distinct tasks of the physical plan that
	// were launched at least once.
	NameOriginalTasks = "original_tasks"
	// NameRelaunchedTasks counts task launches beyond each task's first
	// attempt (recomputations and eviction relaunches).
	NameRelaunchedTasks = "relaunched_tasks"
	// NameEvictions counts transient containers the job lost while it
	// ran, announced or declared dead by the failure detector.
	NameEvictions = "evictions"
	// NameBytesPushed counts payload bytes pushed from transient to
	// reserved executors (Pado's escape path), after each send succeeds.
	NameBytesPushed = "bytes_pushed"
	// NameBytesFetched counts payload bytes pulled from stage outputs,
	// shuffle pulls, and broadcast fetches.
	NameBytesFetched = "bytes_fetched"
	// NameBytesCheckpointed counts payload bytes written to stable
	// storage (Spark-checkpoint only).
	NameBytesCheckpointed = "bytes_checkpointed"
	// NameCacheHits and NameCacheMisses count task-input-cache lookups,
	// folded from the cache_hit/cache_miss events: a lookup that ran no
	// fill (resident, or shared with another slot's in-flight fill) is a
	// hit, the one that ran the fill a miss.
	NameCacheHits   = "cache_hits"
	NameCacheMisses = "cache_misses"
)

// Data-plane connection-pool counter names. These are dynamically minted
// (not struct fields): the pool reports how often a data-plane operation
// had to dial a fresh simnet connection versus reusing a pooled one, so
// reports can show the reuse rate alongside the byte counters.
const (
	NameConnDials  = "conn_dials"
	NameConnReuses = "conn_reuses"
)

// Failure-handling-plane counter names. The heartbeat/suspicion counters
// come from the master's failure detector; the breaker and retry counters
// from the per-destination RPC policy layered over the connection pool.
// Retries are further broken down by cause under "rpc_retries_<cause>"
// (e.g. rpc_retries_push).
const (
	// NameHeartbeatsSent counts heartbeats the node hosts sent.
	NameHeartbeatsSent = "heartbeats_sent"
	// NameHeartbeatsMissed counts silences, not lost beats: a node whose
	// last heartbeat is overdue by two heartbeat periods at a detector
	// tick is counted once, and not again until it beats. A fault-free
	// run counts none.
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
// handled master event); sched_tasks_scanned counts the task states the
// assign pass's scan visits, so scanned/rounds is the per-event
// scheduling cost; slot_index_hits counts rounds that found the
// executor pool saturated.
const (
	NameSchedRounds       = "sched_rounds"
	NameSchedTasksScanned = "sched_tasks_scanned"
	NameSlotIndexHits     = "slot_index_hits"
)

// paperCounters are the counters Snapshot promotes to its fields, in
// field order. Each reports them first, zero until counted, so every
// registry exports the paper's quantities under the same names.
var paperCounters = [...]string{
	NameOriginalTasks, NameRelaunchedTasks, NameEvictions,
	NameBytesPushed, NameBytesFetched, NameBytesCheckpointed,
	NameCacheHits, NameCacheMisses,
}

// Job is one registry of named counters, gauges and histograms, for a job
// or for the fleet. It is safe for concurrent use, and the zero value is
// ready to use.
type Job struct {
	mu     sync.Mutex
	named  map[string]*Counter
	hists  map[string]*Histogram
	gauges map[string]*Gauge
}

// Counter returns the counter registered under name, minting it on first
// use.
func (j *Job) Counter(name string) *Counter {
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

// values copies every minted counter's current value.
func (j *Job) values() map[string]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := make(map[string]int64, len(j.named))
	for name, c := range j.named {
		v[name] = c.Load()
	}
	return v
}

// Each calls fn for every counter: the paper counters first, in
// declaration order, then every other minted counter sorted by name.
func (j *Job) Each(fn func(name string, value int64)) {
	v := j.values()
	for _, name := range paperCounters {
		fn(name, v[name])
		delete(v, name)
	}
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, v[name])
	}
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
	// Named holds every other minted counter (nil when there is none).
	Named map[string]int64
}

// Snapshot captures the current counter values.
func (j *Job) Snapshot(jct time.Duration, timedOut bool) Snapshot {
	v := j.values()
	s := Snapshot{
		JCT:               jct,
		TimedOut:          timedOut,
		OriginalTasks:     v[NameOriginalTasks],
		RelaunchedTasks:   v[NameRelaunchedTasks],
		Evictions:         v[NameEvictions],
		BytesPushed:       v[NameBytesPushed],
		BytesFetched:      v[NameBytesFetched],
		BytesCheckpointed: v[NameBytesCheckpointed],
		CacheHits:         v[NameCacheHits],
		CacheMisses:       v[NameCacheMisses],
	}
	for _, name := range paperCounters {
		delete(v, name)
	}
	if len(v) > 0 {
		s.Named = v
	}
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
