// Package runtime implements the Pado Runtime (paper §3.2): a master that
// orchestrates the distributed workload — container manager, execution
// plan generator, task scheduler — and executors that run tasks on
// reserved and transient containers.
//
// The runtime's defining behaviors, each mapped to its paper section:
//
//   - push-based stage boundaries: transient task outputs are pushed to
//     reserved executors as soon as tasks complete, so intermediate
//     results escape evictions without checkpointing (§3.2.4);
//   - output-commit protocol through the master, giving exactly-once
//     processing of pushed outputs under evictions (§3.2.5);
//   - eviction tolerance: only uncommitted tasks of the currently running
//     stage are relaunched — never parent stages (§3.2.5);
//   - reserved-failure recovery: ancestor stages whose outputs were lost
//     are identified in topological order and recomputed (§3.2.6);
//   - task input caching with cache-aware scheduling, and task output
//     partial aggregation with count/delay escape limits (§3.2.7).
//
// The master schedules (§3.2.3) by scanning the task and stage state
// machines it keeps: after every event it starts the pending stages whose
// parents are done and launches the waiting tasks of running stages,
// cache-first and then round-robin over free slots, one task per job per
// turn. It keeps no second copy of that state to bring up to date.
//
// Control-plane messages (task launches, commits, completion events) are
// exchanged in-process between master and executors, standing in for the
// REEF driver/evaluator messaging the paper's implementation uses. All
// data-plane traffic — pushes, fetches, broadcasts, result collection —
// flows through simnet streams and is bandwidth-accounted.
package runtime

import (
	"time"

	"pado/internal/core"
	"pado/internal/obs"
	"pado/internal/storage"
)

// Config parameterizes the runtime.
type Config struct {
	// Plan holds physical-planning knobs (reduce parallelism).
	Plan core.PlanConfig

	// Tracer, when non-nil, records the run's structured event stream
	// (task launches/relaunches, evictions, push/commit and fetch
	// waves, stage transitions) for export as a Chrome trace or text
	// timeline. Nil disables tracing at near-zero cost. One tracer per
	// job: its virtual clock starts when the tracer is created.
	Tracer *obs.Tracer

	// DisablePartialAggregation turns off the executor-level aggregation
	// buffer of §3.2.7, which merges the combined outputs of tasks that
	// share an executor before they are pushed (on by default; Disable*
	// fields exist so the zero value enables the paper's defaults). It
	// governs only that cross-task buffer: a content-addressable task
	// under a commit store never joins it and still combines its own
	// output per receiver either way (DESIGN.md §14).
	DisablePartialAggregation bool
	// AggMaxTasks bounds how many task outputs may be merged in an
	// executor-level aggregation buffer before it must flush (§3.2.7's
	// "upper limit for the number of aggregated tasks"). Default 4.
	AggMaxTasks int
	// AggMaxDelay bounds how long aggregated data may linger on a
	// transient executor before escaping to reserved executors
	// (§3.2.7's upper limit for time). Default 50ms.
	AggMaxDelay time.Duration

	// DisableCache turns off task input caching and cache-aware
	// scheduling (§3.2.7).
	DisableCache bool

	// MaxTaskFailures aborts the job once a single task has failed this
	// many times (default 50). Chaos tests tighten it to prove the abort
	// path; pathological schedules loosen it.
	MaxTaskFailures int

	// Failure sets the timing of the heartbeat failure detector on the
	// master. The detector and the RPC policy (budgeted backoff retries,
	// per-destination circuit breakers) on every data-plane connection
	// pool always run; the zero value is the defaults. See FailureConfig.
	Failure FailureConfig

	// Commits, when non-nil, enables incremental re-execution: the
	// manager serves this content-addressed commit store over dedicated
	// simnet nodes, probes it with the plan's stage/task cache keys at
	// submission (skipping work whose output is already stored), and
	// writes finished reserved-stage outputs back into it. The store
	// object outlives individual runs, which is what lets a rerun with
	// mostly-unchanged inputs skip the unchanged cone (DESIGN.md §14).
	Commits *storage.CommitStore

	// Chaos, when non-nil, lets a fault-injection engine
	// (internal/chaos) perturb the master's control plane — today, delay
	// or duplicate the commit events relayed to receivers — to stress
	// the §3.2.5 output-commit protocol.
	Chaos ChaosHook
}

// ChaosHook is the runtime side of control-plane fault injection. It is
// implemented by internal/chaos; the runtime only consults it.
type ChaosHook interface {
	// CommitRelay is called once per receiver as the master relays a
	// task's output commit (§3.2.5). job identifies the committing job
	// on a multi-job manager, so faults can target one job's protocol
	// without perturbing its neighbors. It returns how long to delay
	// that relay and how many duplicate commit messages to send after
	// the original — both zero in the common (unperturbed) case. Called
	// from the manager event loop; must not block.
	CommitRelay(job, stage, frag, task, attempt, recvIdx int) (delay time.Duration, duplicates int)
}

// Fixed limits.
const (
	// cacheCapacity is the per-executor input cache budget in bytes.
	cacheCapacity = 64 << 20
	// maxStageRestarts aborts the job once a single stage has been reset
	// this many times.
	maxStageRestarts = 100
	// eventQueueCap sizes the manager's event channel: room for the
	// bursts of task, push and container events a busy cell produces
	// between two handled events, because a full queue fails every job
	// loudly rather than block a cluster callback.
	eventQueueCap = 8192
)

func (c Config) aggMaxTasks() int {
	if c.AggMaxTasks <= 0 {
		return 4
	}
	return c.AggMaxTasks
}

func (c Config) aggMaxDelay() time.Duration {
	if c.AggMaxDelay <= 0 {
		return 50 * time.Millisecond
	}
	return c.AggMaxDelay
}

func (c Config) maxTaskFailures() int {
	if c.MaxTaskFailures <= 0 {
		return 50
	}
	return c.MaxTaskFailures
}
