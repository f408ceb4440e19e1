// Package analyze reconstructs a causal task graph from a recorded obs
// event stream and explains where a job's completion time went.
//
// The paper's §5 evaluation reasons about job-completion time under
// eviction storms; "Do the Hard Stuff First" (Graphene) shows that
// critical-path analysis is the right lens for DAG runtimes. This
// package computes, from events alone:
//
//   - the job's critical path with per-segment attribution (compute vs.
//     push vs. fetch vs. scheduling gap vs. relaunch wait), walked
//     backward from the last stage completion through the attempt that
//     gated it, the eviction that destroyed its predecessor, the stage
//     schedule that admitted it, and so on to job start;
//   - wasted-work accounting: compute time and bytes destroyed by each
//     eviction, attributed to the specific container_evicted event that
//     caused them, so runs can rank their most expensive evictions;
//   - per-stage task-latency distributions (fixed-bucket histograms
//     from internal/metrics) and straggler detection (attempts slower
//     than k× their stage median).
//
// The analysis is engine-agnostic: the Pado runtime and the sparklike
// baselines emit the same event schema, so both produce comparable
// reports — which is what cmd/padoreport diffs to track the benchmark
// trajectory.
package analyze

import (
	"sort"
	"strings"
	"time"

	"pado/internal/metrics"
	"pado/internal/obs"
)

// unseen marks a timestamp that never occurred.
const unseen = time.Duration(-1)

// Options parameterizes Analyze.
type Options struct {
	// StageParents maps each stage id to its parent stage ids (from
	// core.PhysStage.Parents or sparklike.SPlan). When nil, the walker
	// falls back to "latest completed stage" as the causal parent.
	StageParents map[int][]int

	// StragglerK flags attempts slower than K× their stage's median
	// compute time. Default 2.
	StragglerK float64

	// Scale, when non-zero, lets report renderings print paper minutes.
	Scale ScaleInfo

	// JCT is the measured job completion time; when zero the last
	// stage-complete (or last event) timestamp is used.
	JCT      time.Duration
	TimedOut bool

	// Job, when positive, restricts analysis to one job of a multi-job
	// manager trace: only events tagged with that job id, plus
	// fleet-wide events (Job 0, container lifecycle), are analyzed.
	// Zero analyzes the whole stream — single-job traces and fleet
	// aggregates — unchanged.
	Job int

	// Run identity, embedded in the report for padoreport diffs.
	Engine   string
	Workload string
	Rate     string
	Seed     int64

	// Snapshot, when non-nil, embeds the run's counters in the report.
	Snapshot *metrics.Snapshot
}

// ScaleInfo mirrors vtime.Scale without importing it into report JSON.
type ScaleInfo struct {
	WallPerMinute time.Duration
}

// Minutes converts a wall duration to paper minutes (0 when unset).
func (s ScaleInfo) Minutes(d time.Duration) float64 {
	if s.WallPerMinute <= 0 {
		return 0
	}
	return float64(d) / float64(s.WallPerMinute)
}

// attemptKey identifies one task attempt within one stage scheduling
// epoch. Epoch disambiguates Pado stage restarts, which reset attempt
// numbering (events do not carry the runtime's internal generation).
type attemptKey struct {
	Stage, Epoch, Frag, Task, Attempt int
}

// attempt accumulates one task attempt's lifecycle timestamps.
type attempt struct {
	key  attemptKey
	exec string

	launch    time.Duration
	finish    time.Duration // compute done (TaskFinished)
	pushStart time.Duration
	commit    time.Duration
	failed    time.Duration
	pushBytes int64

	// Destruction: set when a TaskRelaunched event superseded this
	// attempt (the relaunch carries Attempt = this attempt + 1).
	relaunch     time.Duration
	relaunchExec string // evicted container on Pado eviction relaunches
	relaunchNote string
}

func newAttempt(k attemptKey) *attempt {
	return &attempt{key: k, launch: unseen, finish: unseen, pushStart: unseen,
		commit: unseen, failed: unseen, relaunch: unseen}
}

// stageKey identifies one scheduling epoch of one stage.
type stageKey struct {
	ID, Epoch int
}

// stageRec accumulates one stage epoch's control-plane timestamps.
type stageRec struct {
	key           stageKey
	sched         time.Duration
	complete      time.Duration
	receiverReady time.Duration // last ReceiverReady of the epoch

	launched   int
	relaunched int
	failed     int
	pushBytes  int64
	fetchBytes int64
	commits    int
}

// span is one [start, end] interval on an executor.
type span struct {
	start, end time.Duration
	bytes      int64
}

// evictionRec is one work-destroying departure: a container_evicted
// event (announced) or a node_declared_dead event (the failure detector
// giving up on a silent node). Both destroy in-flight attempts the same
// way, so waste attribution treats them uniformly; cause distinguishes
// them in the report.
type evictionRec struct {
	index int // ordinal among departures, for stable identity
	exec  string
	t     time.Duration
	cause string // "" for announced evictions, else the declaration note
}

// declRec is one node_declared_dead event.
type declRec struct {
	exec string
	t    time.Duration
	note string // "<kind> <cause>" from the master
}

// unannounced fault ops whose chaos_injected events mark the moment a
// node silently broke (mirrors chaos.OpKillSilent/OpHang/OpGray without
// importing the chaos package).
var unannouncedOps = map[string]bool{"kill-silent": true, "hang": true, "gray": true}

// causeRec is one restart cause: a reserved-container failure or a
// receiver (reserved task) failure.
type causeRec struct {
	t    time.Duration
	note string
}

// fetchKey pairs FetchStarted/FetchDone events.
type fetchKey struct {
	exec  string
	stage int
	frag  int
	task  int
	note  string
}

// model is the reconstructed causal task graph.
type model struct {
	opts Options

	attempts map[attemptKey]*attempt
	byStage  map[stageKey][]*attempt // insertion order = event order

	stages    map[stageKey]*stageRec
	stageKeys []stageKey // sorted at finish()
	maxEpoch  map[int]int

	evictions  []evictionRec
	causes     []causeRec // restart causes, in time order
	fetchSpans map[string][]span
	openFetch  map[fetchKey]time.Duration

	// Failure-handling plane: detector declarations, the unannounced
	// chaos injections they should answer, and heartbeat/breaker tallies.
	declared          []declRec
	injectedAt        map[string]time.Duration // target -> first unannounced injection
	heartbeatsMissed  int
	suspicionsRaised  int
	suspicionsCleared int
	breakerOpens      int

	containersUp      int
	containersEvicted int // announced container_evicted events only
	containersFailed  int
	timedOut          bool
	events            int
	lastT             time.Duration
	jobEnd            time.Duration // last StageComplete (or lastT)
}

func (m *model) attempt(k attemptKey) *attempt {
	a, ok := m.attempts[k]
	if !ok {
		a = newAttempt(k)
		m.attempts[k] = a
		sk := stageKey{k.Stage, k.Epoch}
		m.byStage[sk] = append(m.byStage[sk], a)
	}
	return a
}

func (m *model) stage(sk stageKey) *stageRec {
	s, ok := m.stages[sk]
	if !ok {
		s = &stageRec{key: sk, sched: unseen, complete: unseen, receiverReady: unseen}
		m.stages[sk] = s
	}
	return s
}

// build replays the event stream into the causal model. Events must be
// in merged (virtual-time) order, as returned by Tracer.Events.
func build(events []obs.Event, opts Options) *model {
	m := &model{
		opts:       opts,
		attempts:   make(map[attemptKey]*attempt),
		byStage:    make(map[stageKey][]*attempt),
		stages:     make(map[stageKey]*stageRec),
		maxEpoch:   make(map[int]int),
		fetchSpans: make(map[string][]span),
		openFetch:  make(map[fetchKey]time.Duration),
		injectedAt: make(map[string]time.Duration),
	}
	m.events = len(events)

	epochOf := func(stage int) int {
		if e := m.maxEpoch[stage]; e > 0 {
			return e
		}
		// Events can precede the first StageScheduled only in synthetic
		// streams; fold them into epoch 1.
		return 1
	}

	for _, ev := range events {
		if ev.T > m.lastT {
			m.lastT = ev.T
		}
		switch ev.Kind {
		case obs.StageScheduled:
			m.maxEpoch[ev.Stage]++
			s := m.stage(stageKey{ev.Stage, m.maxEpoch[ev.Stage]})
			s.sched = ev.T

		case obs.StageComplete:
			s := m.stage(stageKey{ev.Stage, epochOf(ev.Stage)})
			s.complete = ev.T
			if ev.T > m.jobEnd {
				m.jobEnd = ev.T
			}

		case obs.ReceiverReady:
			s := m.stage(stageKey{ev.Stage, epochOf(ev.Stage)})
			if ev.T > s.receiverReady {
				s.receiverReady = ev.T
			}

		case obs.TaskLaunched:
			k := attemptKey{ev.Stage, epochOf(ev.Stage), ev.Frag, ev.Task, ev.Attempt}
			a := m.attempt(k)
			if a.launch == unseen {
				a.launch = ev.T
			}
			if ev.Exec != "" {
				a.exec = ev.Exec
			}
			m.stage(stageKey{ev.Stage, k.Epoch}).launched++

		case obs.TaskFinished:
			k := attemptKey{ev.Stage, epochOf(ev.Stage), ev.Frag, ev.Task, ev.Attempt}
			a := m.attempt(k)
			if a.finish == unseen {
				a.finish = ev.T
			}
			if a.exec == "" && ev.Exec != "" {
				a.exec = ev.Exec
			}

		case obs.TaskRelaunched:
			// Attempt carries the NEW attempt number; the destroyed
			// attempt is Attempt-1.
			sk := stageKey{ev.Stage, epochOf(ev.Stage)}
			m.stage(sk).relaunched++
			if ev.Attempt > 0 {
				prev := m.attempt(attemptKey{ev.Stage, sk.Epoch, ev.Frag, ev.Task, ev.Attempt - 1})
				if prev.relaunch == unseen {
					prev.relaunch = ev.T
					prev.relaunchExec = ev.Exec
					prev.relaunchNote = ev.Note
				}
			}

		case obs.TaskFailed:
			sk := stageKey{ev.Stage, epochOf(ev.Stage)}
			m.stage(sk).failed++
			a := m.attempt(attemptKey{ev.Stage, sk.Epoch, ev.Frag, ev.Task, ev.Attempt})
			if a.failed == unseen {
				a.failed = ev.T
			}
			if ev.Frag == obs.ReservedFrag {
				m.causes = append(m.causes, causeRec{t: ev.T, note: "receiver failure"})
			}

		case obs.PushStarted:
			k := attemptKey{ev.Stage, epochOf(ev.Stage), ev.Frag, ev.Task, ev.Attempt}
			a := m.attempt(k)
			if a.pushStart == unseen {
				a.pushStart = ev.T
			}
			a.pushBytes += ev.Bytes
			m.stage(stageKey{ev.Stage, k.Epoch}).pushBytes += ev.Bytes

		case obs.PushCommitted:
			k := attemptKey{ev.Stage, epochOf(ev.Stage), ev.Frag, ev.Task, ev.Attempt}
			a := m.attempt(k)
			if a.commit == unseen {
				a.commit = ev.T
			}
			if a.exec == "" && ev.Exec != "" {
				a.exec = ev.Exec
			}
			m.stage(stageKey{ev.Stage, k.Epoch}).commits++

		case obs.FetchStarted:
			fk := fetchKey{ev.Exec, ev.Stage, ev.Frag, ev.Task, ev.Note}
			m.openFetch[fk] = ev.T

		case obs.FetchDone:
			fk := fetchKey{ev.Exec, ev.Stage, ev.Frag, ev.Task, ev.Note}
			if start, ok := m.openFetch[fk]; ok {
				delete(m.openFetch, fk)
				m.fetchSpans[ev.Exec] = append(m.fetchSpans[ev.Exec],
					span{start: start, end: ev.T, bytes: ev.Bytes})
			}
			// Fetch events carry the PARENT stage id; charge the bytes
			// there, matching the timeline exporter.
			m.stage(stageKey{ev.Stage, epochOf(ev.Stage)}).fetchBytes += ev.Bytes

		case obs.ContainerUp:
			m.containersUp++

		case obs.ContainerEvicted:
			m.containersEvicted++
			m.evictions = append(m.evictions, evictionRec{
				index: len(m.evictions), exec: ev.Exec, t: ev.T})

		case obs.ContainerFailed:
			m.containersFailed++
			m.causes = append(m.causes, causeRec{t: ev.T, note: "container " + ev.Exec + " failed"})

		case obs.NodeDeclaredDead:
			m.declared = append(m.declared, declRec{exec: ev.Exec, t: ev.T, note: ev.Note})
			// The declaration destroys the node's in-flight attempts just
			// like an announced eviction; join the attribution index.
			m.evictions = append(m.evictions, evictionRec{
				index: len(m.evictions), exec: ev.Exec, t: ev.T, cause: ev.Note})
			// A reserved node declared dead restarts its stages (§3.2.6),
			// so it is also a legitimate restart cause.
			if strings.HasPrefix(ev.Note, "reserved") {
				m.causes = append(m.causes, causeRec{t: ev.T, note: "node " + ev.Exec + " declared dead"})
			}

		case obs.ChaosInjected:
			// record() notes are "<ruleID> <op> <detail>"; unannounced ops
			// timestamp when a node silently broke, anchoring detection
			// latency.
			if f := strings.Fields(ev.Note); len(f) >= 2 && unannouncedOps[f[1]] && ev.Exec != "" {
				if _, ok := m.injectedAt[ev.Exec]; !ok {
					m.injectedAt[ev.Exec] = ev.T
				}
			}

		case obs.HeartbeatMissed:
			m.heartbeatsMissed++
		case obs.SuspicionRaised:
			m.suspicionsRaised++
		case obs.SuspicionCleared:
			m.suspicionsCleared++
		case obs.BreakerOpened:
			m.breakerOpens++

		case obs.JobTimedOut:
			m.timedOut = true
		}
	}

	if m.jobEnd == 0 {
		m.jobEnd = m.lastT
	}
	m.stageKeys = make([]stageKey, 0, len(m.stages))
	for sk := range m.stages {
		m.stageKeys = append(m.stageKeys, sk)
	}
	sort.Slice(m.stageKeys, func(i, j int) bool {
		a, b := m.stageKeys[i], m.stageKeys[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Epoch < b.Epoch
	})
	for _, spans := range m.fetchSpans {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	}
	return m
}

// finalEpoch returns the last scheduling epoch of a stage (0 if never
// scheduled).
func (m *model) finalEpoch(id int) int { return m.maxEpoch[id] }

// latestCompleteBefore returns the stage epoch with the latest
// StageComplete at or before t, excluding excludeID. Deterministic:
// scans sorted stage keys.
func (m *model) latestCompleteBefore(t time.Duration, excludeID int) (stageKey, time.Duration, bool) {
	best := unseen
	var bestKey stageKey
	for _, sk := range m.stageKeys {
		if sk.ID == excludeID {
			continue
		}
		s := m.stages[sk]
		if s.complete != unseen && s.complete <= t && s.complete > best {
			best = s.complete
			bestKey = sk
		}
	}
	return bestKey, best, best != unseen
}

// latestCompleteOf returns the latest StageComplete of one stage at or
// before t, across its epochs.
func (m *model) latestCompleteOf(id int, t time.Duration) (stageKey, time.Duration, bool) {
	best := unseen
	var bestKey stageKey
	for e := 1; e <= m.finalEpoch(id); e++ {
		s, ok := m.stages[stageKey{id, e}]
		if !ok || s.complete == unseen || s.complete > t {
			continue
		}
		if s.complete > best {
			best = s.complete
			bestKey = s.key
		}
	}
	return bestKey, best, best != unseen
}

// latestCauseBefore returns the latest restart cause at or before t.
func (m *model) latestCauseBefore(t time.Duration) (causeRec, bool) {
	var best causeRec
	found := false
	for _, c := range m.causes {
		if c.t <= t && (!found || c.t >= best.t) {
			best, found = c, true
		}
	}
	return best, found
}

// fetchSpansIn returns exec's completed fetch spans clipped to
// [from, to], merged so they never overlap, in increasing time order.
func (m *model) fetchSpansIn(exec string, from, to time.Duration) []span {
	var out []span
	for _, s := range m.fetchSpans[exec] {
		if s.end <= from || s.start >= to {
			continue
		}
		c := s
		if c.start < from {
			c.start = from
		}
		if c.end > to {
			c.end = to
		}
		if len(out) > 0 && c.start <= out[len(out)-1].end {
			if c.end > out[len(out)-1].end {
				out[len(out)-1].end = c.end
			}
			out[len(out)-1].bytes += c.bytes
			continue
		}
		out = append(out, c)
	}
	return out
}
