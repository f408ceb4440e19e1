// Package obs provides the runtime's structured observability layer: a
// lightweight tracer that records typed, virtually-timestamped events
// along the whole execution path (task launches and relaunches, container
// evictions, push/commit and fetch waves, stage transitions, cache
// traffic), plus exporters that turn a recorded event stream into a
// Chrome trace_event JSON file (loadable in chrome://tracing or Perfetto)
// and a plain-text per-stage timeline.
//
// The paper's evaluation (§5) reasons entirely from when things happened
// — eviction storms, relaunch cascades, push waves racing receiver setup
// — and end-of-job counters cannot answer those questions. A Trace can.
//
// Design constraints:
//
//   - Near-zero cost when disabled: a nil *Tracer (and the nil *Buf it
//     hands out) is the off switch; every method is nil-safe and returns
//     after one pointer check, so instrumented code never branches on a
//     config flag and benchmarks with tracing off are unaffected.
//   - Allocation-conscious when enabled: events are flat value structs
//     appended to per-component buffers (one Buf per master, executor,
//     or test goroutine), each guarded by its own uncontended mutex, and
//     merged into one vtime-ordered stream only when the job ends.
//   - Engine-agnostic schema: the Pado runtime and the sparklike
//     baseline emit the same event kinds, making side-by-side trajectory
//     comparison of the two engines possible.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pado/internal/metrics"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds shared by every engine.
const (
	KindNone Kind = iota

	// Task lifecycle. "Task" covers both transient fragment tasks and
	// reserved tasks (receivers); the latter use Frag == ReservedFrag.
	TaskLaunched
	TaskFinished
	TaskRelaunched
	TaskFailed

	// Container lifecycle as seen by the engine's master.
	ContainerUp
	ContainerEvicted
	ContainerFailed

	// ReceiverReady marks a reserved task registered and accepting
	// pushes (Pado runtime only).
	ReceiverReady

	// Push path: a task output starting its escape toward reserved
	// executors (or stable storage for the checkpoint baseline), and the
	// master-acknowledged commit of that output.
	PushStarted
	PushCommitted

	// Fetch path: cross-stage input transfers (pulls, broadcasts,
	// shuffle reads).
	FetchStarted
	FetchDone

	// Stage transitions on the master.
	StageScheduled
	StageComplete

	// Task-input-cache lookups on executors.
	CacheHit
	CacheMiss

	// ChaosInjected marks a scripted fault firing (internal/chaos), so
	// traces show when each injection landed relative to pushes/commits.
	ChaosInjected

	// JobAborted marks the master giving up on the job (a failure
	// threshold tripped, or the event queue overflowed).
	JobAborted

	// PlanCompiled marks the compiler producing the physical plan.
	PlanCompiled

	// Job lifecycle on a multi-job master (JobManager): submission,
	// the admission decision (admitted / queued behind the budget /
	// rejected outright), and completion. All carry Event.Job.
	JobSubmitted
	JobAdmitted
	JobQueued
	JobRejected
	JobCompleted

	// JobTimedOut marks a job abandoned by its deadline: unlike
	// JobCompleted it is NOT a completion — analyzer reports and the
	// chaos checker treat the job as unfinished. Note carries the cause.
	JobTimedOut

	// Failure-detector lifecycle on the master (alive → suspect → dead).
	// HeartbeatMissed fires when a node's heartbeat is overdue at a
	// detector tick; SuspicionRaised/Cleared bracket the suspect state;
	// NodeDeclaredDead marks the detector giving up on a node and
	// driving eviction-style recovery. All carry Exec.
	HeartbeatMissed
	SuspicionRaised
	SuspicionCleared
	NodeDeclaredDead

	// Per-destination circuit breaker transitions on the RPC policy
	// layer. Exec carries the quarantined destination; Note the owner
	// node and cause.
	BreakerOpened
	BreakerClosed

	// Incremental re-execution (DESIGN.md §14). StageSkipped marks a
	// stage served whole from the commit store (it is followed by a
	// StageComplete but never a StageScheduled); TaskSkipped marks one
	// fragment task whose output was served from a task-level commit.
	StageSkipped
	TaskSkipped

	kindCount // sentinel: number of kinds
)

var kindNames = [kindCount]string{
	KindNone:         "none",
	TaskLaunched:     "task_launched",
	TaskFinished:     "task_finished",
	TaskRelaunched:   "task_relaunched",
	TaskFailed:       "task_failed",
	ContainerUp:      "container_up",
	ContainerEvicted: "container_evicted",
	ContainerFailed:  "container_failed",
	ReceiverReady:    "receiver_ready",
	PushStarted:      "push_started",
	PushCommitted:    "push_committed",
	FetchStarted:     "fetch_started",
	FetchDone:        "fetch_done",
	StageScheduled:   "stage_scheduled",
	StageComplete:    "stage_complete",
	CacheHit:         "cache_hit",
	CacheMiss:        "cache_miss",
	ChaosInjected:    "chaos_injected",
	JobAborted:       "job_aborted",
	PlanCompiled:     "plan_compiled",
	JobSubmitted:     "job_submitted",
	JobAdmitted:      "job_admitted",
	JobQueued:        "job_queued",
	JobRejected:      "job_rejected",
	JobCompleted:     "job_completed",
	JobTimedOut:      "job_timed_out",
	HeartbeatMissed:  "heartbeat_missed",
	SuspicionRaised:  "suspicion_raised",
	SuspicionCleared: "suspicion_cleared",
	NodeDeclaredDead: "node_declared_dead",
	BreakerOpened:    "breaker_opened",
	BreakerClosed:    "breaker_closed",
	StageSkipped:     "stage_skipped",
	TaskSkipped:      "task_skipped",
}

// kindByName inverts kindNames, built once on first ParseKind call.
var (
	kindByNameOnce sync.Once
	kindByName     map[string]Kind
)

// ParseKind maps a kind name ("push_started") back to its Kind. Plan
// files (internal/chaos) name trigger events by these strings, and the
// chaos engine parses one per trigger rule, so the lookup is a map
// built once rather than a scan over every kind.
func ParseKind(name string) (Kind, bool) {
	kindByNameOnce.Do(func() {
		kindByName = make(map[string]Kind, kindCount)
		for k := KindNone; k < kindCount; k++ {
			kindByName[kindNames[k]] = k
		}
	})
	k, ok := kindByName[name]
	return k, ok
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "unknown"
}

// ReservedFrag is the Frag value marking reserved tasks (receivers),
// which live outside any transient fragment.
const ReservedFrag = -1

// Event is one timestamped occurrence. It is a flat value type so event
// buffers are single contiguous allocations; fields that do not apply to
// a kind are left at their zero values (Stage/Frag/Task default to -1
// via the emit helpers only where ambiguity matters — emitters set the
// fields they know).
type Event struct {
	// T is the event's timestamp: time elapsed since the tracer was
	// created (job start).
	T time.Duration
	// Kind classifies the event.
	Kind Kind
	// Job scopes the event to one job on a multi-job master. 0 means
	// fleet-wide / unscoped (container lifecycle, chaos injections, and
	// every event of a single-job run); JobManager job ids start at 1.
	// Buffers handed out by Tracer.JobBuf stamp it automatically.
	Job int
	// Stage is the physical stage id (or the parent stage being fetched
	// from, for Fetch* events). -1 when not stage-scoped.
	Stage int
	// Frag is the fragment index within the stage; ReservedFrag for
	// reserved tasks; 0 for engines without fragments.
	Frag int
	// Task is the task (or partition) index. -1 when not task-scoped.
	Task int
	// Attempt is the task attempt number.
	Attempt int
	// Exec is the container/executor id the event concerns ("" for the
	// master process itself).
	Exec string
	// Bytes is the payload size for data-movement events.
	Bytes int64
	// Note carries free-form detail (container kind, error text).
	Note string
}

// Tracer records events from many components into per-component buffers
// and merges them on demand. The zero value is not useful; use New. A
// nil *Tracer is the disabled tracer: every method is a nil-safe no-op.
type Tracer struct {
	start time.Time

	// sink mirrors per-kind event counts into a metrics registry; wired
	// by FeedCounters. Atomic because an already-attached consumer (the
	// chaos engine's injector) may Emit concurrently with the wiring.
	sink [kindCount]atomic.Pointer[metrics.Counter]

	// fan, when set, is the immutable live-consumer set: synchronous
	// subscribers (the chaos engine triggers faults off one inline) and
	// asynchronous ones with bounded buffers (the introspection plane's
	// /events stream). Published
	// copy-on-write under mu; nil when nobody is listening, so the
	// emit-path cost with no live consumers is one atomic load.
	fan atomic.Pointer[fanout]

	mu   sync.Mutex
	bufs []*Buf
}

// New returns a Tracer timestamping against package time, starting now
// (inside a testing/synctest bubble that is the bubble's fake clock, which
// makes event times exact).
func New() *Tracer { return &Tracer{start: time.Now()} }

// FeedCounters mirrors every subsequently emitted event into reg as a
// named counter ("obs.task_launched", "obs.container_evicted", ...), so
// the metrics registry carries event totals even when the full event
// stream is discarded. Call before any Buf emits; nil-safe.
func (t *Tracer) FeedCounters(reg *metrics.Job) {
	if t == nil || reg == nil {
		return
	}
	for k := KindNone + 1; k < kindCount; k++ {
		t.sink[k].Store(reg.Counter("obs." + k.String()))
	}
}

// Buf registers and returns a new event buffer. Components (the master,
// each executor, each test goroutine) hold their own Buf so emissions
// never contend with each other; the tracer merges all buffers in
// Events. A nil tracer returns a nil Buf, which swallows emissions.
func (t *Tracer) Buf() *Buf {
	if t == nil {
		return nil
	}
	b := &Buf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// JobBuf registers and returns a new event buffer whose emissions are
// stamped with the given job id (unless the emitter already set one), so
// per-job components on a multi-job master tag their whole stream without
// touching each emit site. A nil tracer returns a nil Buf.
func (t *Tracer) JobBuf(job int) *Buf {
	if t == nil {
		return nil
	}
	b := &Buf{t: t, job: job}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Events merges every buffer into one stream ordered by virtual time
// (stable, so same-timestamp events keep their per-buffer order). Safe
// to call while components are still emitting: it snapshots each buffer
// under its lock.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	bufs := make([]*Buf, len(t.bufs))
	copy(bufs, t.bufs)
	t.mu.Unlock()

	var n int
	for _, b := range bufs {
		b.mu.Lock()
		n += len(b.evs)
		b.mu.Unlock()
	}
	out := make([]Event, 0, n)
	for _, b := range bufs {
		b.mu.Lock()
		out = append(out, b.evs...)
		b.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	bufs := make([]*Buf, len(t.bufs))
	copy(bufs, t.bufs)
	t.mu.Unlock()
	n := 0
	for _, b := range bufs {
		b.mu.Lock()
		n += len(b.evs)
		b.mu.Unlock()
	}
	return n
}

// Buf is one component's event buffer. A Buf's mutex is uncontended in
// steady state (only the owning component appends; the tracer locks it
// briefly to merge), so Emit costs an uncontended lock plus an append. A
// nil *Buf discards events after a single pointer check.
type Buf struct {
	t   *Tracer
	job int // stamped onto events that carry no job id (JobBuf)
	mu  sync.Mutex
	evs []Event
}

// Emit records ev, stamping it with the time since the tracer started
// and — for job-scoped buffers — the buffer's job id when the caller left
// ev.Job zero. The caller leaves ev.T zero. Nil-safe.
func (b *Buf) Emit(ev Event) {
	if b == nil {
		return
	}
	ev.T = time.Since(b.t.start)
	if ev.Job == 0 {
		ev.Job = b.job
	}
	if c := b.t.sink[ev.Kind].Load(); c != nil {
		c.Add(1)
	}
	b.mu.Lock()
	b.evs = append(b.evs, ev)
	b.mu.Unlock()
	if f := b.t.fan.Load(); f != nil {
		for _, s := range f.sync {
			s.fn(ev)
		}
		for _, s := range f.subs {
			s.offer(ev)
		}
	}
}
