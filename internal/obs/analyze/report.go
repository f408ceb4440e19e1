package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pado/internal/metrics"
	"pado/internal/obs"
)

// Schema identifies the report JSON layout; bump on breaking changes.
const Schema = "pado.report/v1"

// NamedValue is one counter in the report, in deterministic order.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// ClassShare is one critical-path class total.
type ClassShare struct {
	Class string  `json:"class"`
	NS    int64   `json:"ns"`
	Frac  float64 `json:"frac"`
}

// CritPath is the critical-path section of a report. Segments tile
// [0, TotalNS] exactly, so the critical-path length IS the job
// completion time as seen by the event stream.
type CritPath struct {
	TotalNS  int64        `json:"total_ns"`
	ByClass  []ClassShare `json:"by_class"`
	Segments []Segment    `json:"segments"`
}

// Class returns the total for one class (0 when absent).
func (c CritPath) Class(name string) int64 {
	for _, s := range c.ByClass {
		if s.Class == name {
			return s.NS
		}
	}
	return 0
}

// EvictionCost is the wasted work attributed to one work-destroying
// departure: a container_evicted event or a node_declared_dead
// declaration by the failure detector.
type EvictionCost struct {
	Index         int    `json:"index"` // ordinal among the run's departures
	Exec          string `json:"exec"`
	AtNS          int64  `json:"at_ns"`
	TasksKilled   int    `json:"tasks_killed"`
	ComputeLostNS int64  `json:"compute_lost_ns"`
	BytesLost     int64  `json:"bytes_lost"`
	Stages        []int  `json:"stages,omitempty"` // distinct stages hit
	// Cause is empty for announced evictions; for detector declarations
	// it carries the master's note ("<kind> <cause>").
	Cause string `json:"cause,omitempty"`
}

// Waste is the wasted-work accounting section.
type Waste struct {
	// Evictions lists per-eviction costs, most expensive (by compute
	// lost, then bytes) first. Evictions that destroyed nothing are
	// counted in EvictionsTotal but not listed.
	Evictions []EvictionCost `json:"evictions,omitempty"`
	// EvictionsTotal counts every work-destroying departure — announced
	// container_evicted events plus detector node_declared_dead
	// declarations — including harmless ones.
	EvictionsTotal int `json:"evictions_total"`
	// Eviction-attributed losses (sums over Evictions).
	TasksKilled   int   `json:"tasks_killed"`
	ComputeLostNS int64 `json:"compute_lost_ns"`
	BytesLost     int64 `json:"bytes_lost"`
	// Losses from plain task failures (no eviction involved).
	FailureTasks         int   `json:"failure_tasks"`
	FailureComputeLostNS int64 `json:"failure_compute_lost_ns"`
	// Losses from whole-stage restarts (reserved-container/receiver
	// failures destroy committed stage work wholesale).
	RestartComputeLostNS int64 `json:"restart_compute_lost_ns"`
}

// StageReport summarizes one stage. Timestamps come from the final
// scheduling epoch; counts aggregate every epoch.
type StageReport struct {
	ID          int                  `json:"id"`
	ScheduledNS int64                `json:"scheduled_ns"`
	CompletedNS int64                `json:"completed_ns"` // -1 when never completed
	Restarts    int                  `json:"restarts"`
	Launched    int                  `json:"launched"`
	Relaunched  int                  `json:"relaunched"`
	Failed      int                  `json:"failed"`
	Commits     int                  `json:"commits"`
	PushBytes   int64                `json:"push_bytes"`
	FetchBytes  int64                `json:"fetch_bytes"`
	Latency     metrics.HistSnapshot `json:"latency"`
	P50NS       int64                `json:"p50_ns"`
	P95NS       int64                `json:"p95_ns"`
	MaxNS       int64                `json:"max_ns"`
}

// Straggler is one attempt that ran much slower than its stage median.
type Straggler struct {
	Stage         int     `json:"stage"`
	Frag          int     `json:"frag"`
	Task          int     `json:"task"`
	Attempt       int     `json:"attempt"`
	Exec          string  `json:"exec,omitempty"`
	DurNS         int64   `json:"dur_ns"`
	StageMedianNS int64   `json:"stage_median_ns"`
	Ratio         float64 `json:"ratio"`
}

// ContainerStats counts container lifecycle events.
type ContainerStats struct {
	Up      int `json:"up"`
	Evicted int `json:"evicted"`
	Failed  int `json:"failed"`
	// DeclaredDead counts nodes the failure detector gave up on —
	// unannounced departures recovered without a cluster callback.
	DeclaredDead int `json:"declared_dead,omitempty"`
}

// Detection is one failure-detector declaration paired, when possible,
// with the chaos injection that silenced the node.
type Detection struct {
	Exec string `json:"exec"`
	Note string `json:"note,omitempty"` // "<kind> <cause>" from the master
	AtNS int64  `json:"at_ns"`
	// LatencyNS is the injection→declaration gap when an unannounced
	// chaos fault (kill-silent/hang/gray) targeted the node; -1 when the
	// declaration has no recorded injection to anchor against.
	LatencyNS int64 `json:"latency_ns"`
}

// FailureDetection is the failure-handling-plane section: what the
// heartbeat detector saw and declared, and what the RPC retry/backoff
// policy spent answering flaky destinations. Omitted entirely when the
// run had no detector or breaker activity, keeping detector-free
// reports byte-identical to the prior schema.
type FailureDetection struct {
	Declared []Detection `json:"declared,omitempty"`

	HeartbeatsMissed  int `json:"heartbeats_missed"`
	SuspicionsRaised  int `json:"suspicions_raised"`
	SuspicionsCleared int `json:"suspicions_cleared"`
	BreakerOpens      int `json:"breaker_opens"`

	// Retry/backoff waste bucket, from the run's counters: attempts and
	// wall time the RPC policy burned on retries instead of progress.
	RPCRetries   int64 `json:"rpc_retries"`
	RPCBackoffNS int64 `json:"rpc_backoff_ns"`
}

// Cache is the incremental re-execution section: what the run's probe
// against the commit store found and what compute the hits avoided
// (DESIGN.md §14). Omitted entirely when the run had no commit-store
// activity, keeping non-incremental reports byte-identical to the prior
// schema.
type Cache struct {
	// Probes/Hits/Misses count commit-store lookups at submission,
	// stage- and task-level together; Writes counts manifests this run
	// committed back.
	Probes int64 `json:"probes"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
	// StagesSkipped/TasksSkipped count work served from the store
	// instead of launched; ComputeAvoidedTasks is the task count a
	// skipped stage would have run (fragment tasks plus receivers).
	StagesSkipped       int64 `json:"stages_skipped"`
	TasksSkipped        int64 `json:"tasks_skipped"`
	ComputeAvoidedTasks int64 `json:"compute_avoided_tasks"`
	// CAS traffic: chunk reads (skipped-stage fetches, skipped-task
	// pulls) and chunk writes on the commit path.
	CASBytesServed  int64 `json:"cas_bytes_served"`
	CASBytesWritten int64 `json:"cas_bytes_written"`
}

// Report is the analyzer's verdict over one run. All fields are plain
// values or slices in deterministic order, so encoding the same report
// twice yields identical bytes.
type Report struct {
	Schema   string `json:"schema"`
	Engine   string `json:"engine,omitempty"`
	Workload string `json:"workload,omitempty"`
	Rate     string `json:"rate,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Job identifies the analyzed job of a multi-job manager trace (0 =
	// whole stream; omitted from JSON so single-job reports are
	// byte-identical to the pre-multi-job schema).
	Job int `json:"job,omitempty"`
	// ScaleNSPerMinute maps wall nanoseconds to one paper minute (0
	// when the run had no scale).
	ScaleNSPerMinute int64 `json:"scale_ns_per_minute,omitempty"`

	JCTNS      int64   `json:"jct_ns"`
	JCTMinutes float64 `json:"jct_minutes,omitempty"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Events     int     `json:"events"`

	Containers ContainerStats `json:"containers"`
	Counters   []NamedValue   `json:"counters,omitempty"`

	CritPath CritPath `json:"critical_path"`
	Waste    Waste    `json:"waste"`
	// Detection is present only when the run's failure-handling plane
	// did something worth reporting (see FailureDetection).
	Detection *FailureDetection `json:"detection,omitempty"`
	// Cache is present only when the run touched a commit store.
	Cache      *Cache        `json:"cache,omitempty"`
	Stages     []StageReport `json:"stages"`
	Stragglers []Straggler   `json:"stragglers,omitempty"`
}

// Analyze builds a Report from a merged event stream (Tracer.Events
// order). It never fails: an empty stream yields an empty report.
func Analyze(events []obs.Event, opts Options) *Report {
	if opts.StragglerK <= 0 {
		opts.StragglerK = 2
	}
	if opts.Job > 0 {
		filtered := make([]obs.Event, 0, len(events))
		for _, ev := range events {
			if ev.Job == opts.Job || ev.Job == 0 {
				filtered = append(filtered, ev)
			}
		}
		events = filtered
	}
	m := build(events, opts)

	jct := opts.JCT
	if jct <= 0 {
		jct = m.jobEnd
	}
	r := &Report{
		Schema:           Schema,
		Engine:           opts.Engine,
		Workload:         opts.Workload,
		Rate:             opts.Rate,
		Seed:             opts.Seed,
		Job:              opts.Job,
		ScaleNSPerMinute: int64(opts.Scale.WallPerMinute),
		JCTNS:            int64(jct),
		JCTMinutes:       opts.Scale.Minutes(jct),
		TimedOut:         opts.TimedOut || m.timedOut,
		Events:           m.events,
		Containers: ContainerStats{
			Up:           m.containersUp,
			Evicted:      m.containersEvicted,
			Failed:       m.containersFailed,
			DeclaredDead: len(m.declared),
		},
	}
	if opts.Snapshot != nil {
		r.Counters = countersOf(*opts.Snapshot)
	}

	segs := criticalPath(m)
	r.CritPath = critPathSection(segs)
	r.Waste = wasteSection(m)
	r.Detection = detectionSection(m, opts.Snapshot)
	r.Cache = cacheSection(opts.Snapshot)
	r.Stages, r.Stragglers = stageSection(m, opts.StragglerK)
	return r
}

// detectionSection assembles the failure-handling-plane report, or nil
// when the run shows no detector, suspicion, or retry activity at all.
func detectionSection(m *model, snap *metrics.Snapshot) *FailureDetection {
	d := &FailureDetection{
		HeartbeatsMissed:  m.heartbeatsMissed,
		SuspicionsRaised:  m.suspicionsRaised,
		SuspicionsCleared: m.suspicionsCleared,
		BreakerOpens:      m.breakerOpens,
	}
	if snap != nil {
		d.RPCRetries = snap.Named[metrics.NameRPCRetries]
		d.RPCBackoffNS = snap.Named[metrics.NameRPCBackoffNS]
	}
	for _, dr := range m.declared {
		det := Detection{Exec: dr.exec, Note: dr.note, AtNS: int64(dr.t), LatencyNS: -1}
		if at, ok := m.injectedAt[dr.exec]; ok && dr.t >= at {
			det.LatencyNS = int64(dr.t - at)
		}
		d.Declared = append(d.Declared, det)
	}
	if len(d.Declared) == 0 && d.HeartbeatsMissed == 0 && d.SuspicionsRaised == 0 &&
		d.SuspicionsCleared == 0 && d.BreakerOpens == 0 &&
		d.RPCRetries == 0 && d.RPCBackoffNS == 0 {
		return nil
	}
	return d
}

// cacheSection assembles the incremental re-execution report from the
// run's counters, or nil when the run never touched a commit store.
func cacheSection(snap *metrics.Snapshot) *Cache {
	if snap == nil {
		return nil
	}
	c := &Cache{
		Probes:              snap.Named[metrics.NameCommitProbes],
		Hits:                snap.Named[metrics.NameCommitHits],
		Misses:              snap.Named[metrics.NameCommitMisses],
		Writes:              snap.Named[metrics.NameCommitWrites],
		StagesSkipped:       snap.Named[metrics.NameStagesSkipped],
		TasksSkipped:        snap.Named[metrics.NameTasksSkipped],
		ComputeAvoidedTasks: snap.Named[metrics.NameComputeAvoidedTasks],
		CASBytesServed:      snap.Named[metrics.NameCASBytesServed],
		CASBytesWritten:     snap.Named[metrics.NameCASBytesWritten],
	}
	if c.Probes == 0 && c.Writes == 0 && c.CASBytesServed == 0 && c.CASBytesWritten == 0 {
		return nil
	}
	return c
}

// sortedAttempts returns every attempt in deterministic order: by
// stage, epoch, frag, task, attempt.
func (m *model) sortedAttempts() []*attempt {
	out := make([]*attempt, 0, len(m.attempts))
	for _, a := range m.attempts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Frag != b.Frag {
			return a.Frag < b.Frag
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Attempt < b.Attempt
	})
	return out
}

func critPathSection(segs []Segment) CritPath {
	cp := CritPath{Segments: segs}
	totals := make(map[string]int64, len(Classes))
	for _, s := range segs {
		totals[s.Class] += s.EndNS - s.StartNS
		if s.EndNS > cp.TotalNS {
			cp.TotalNS = s.EndNS
		}
	}
	for _, c := range Classes {
		share := ClassShare{Class: c, NS: totals[c]}
		if cp.TotalNS > 0 {
			share.Frac = float64(share.NS) / float64(cp.TotalNS)
		}
		cp.ByClass = append(cp.ByClass, share)
	}
	return cp
}

// wasteSection computes per-eviction and per-cause wasted work.
//
// An attempt is "destroyed" when a TaskRelaunched event superseded it.
// Its lost compute is the time from launch until it finished computing
// (if it did) or until it was destroyed (if still running). Destroyed
// attempts never committed, so every byte they pushed was also lost.
// The destruction is attributed to the eviction of the executor the
// attempt was running on; destructions with no matching eviction (task
// errors, invariant-preserving un-commits) land in the failure bucket.
func wasteSection(m *model) Waste {
	w := Waste{EvictionsTotal: len(m.evictions)}

	// Index evictions by executor for attribution lookups.
	byExec := make(map[string][]evictionRec)
	for _, e := range m.evictions {
		byExec[e.exec] = append(byExec[e.exec], e)
	}
	costs := make(map[int]*EvictionCost) // eviction index -> cost
	stageSets := make(map[int]map[int]bool)

	attribute := func(a *attempt, lost time.Duration) {
		// Prefer the eviction of the attempt's own executor inside the
		// attempt's lifetime; fall back to the eviction the relaunch
		// event named (covers races where the launch was missed).
		find := func(exec string, lo, hi time.Duration) (evictionRec, bool) {
			var best evictionRec
			found := false
			for _, e := range byExec[exec] {
				if e.t >= lo && e.t <= hi && (!found || e.t >= best.t) {
					best, found = e, true
				}
			}
			return best, found
		}
		ev, ok := find(a.exec, a.launch, a.relaunch)
		if !ok && a.relaunchExec != "" {
			ev, ok = find(a.relaunchExec, 0, a.relaunch)
		}
		if !ok {
			w.FailureTasks++
			w.FailureComputeLostNS += int64(lost)
			return
		}
		c := costs[ev.index]
		if c == nil {
			c = &EvictionCost{Index: ev.index, Exec: ev.exec, AtNS: int64(ev.t), Cause: ev.cause}
			costs[ev.index] = c
			stageSets[ev.index] = make(map[int]bool)
		}
		c.TasksKilled++
		c.ComputeLostNS += int64(lost)
		c.BytesLost += a.pushBytes
		stageSets[ev.index][a.key.Stage] = true
		w.TasksKilled++
		w.ComputeLostNS += int64(lost)
		w.BytesLost += a.pushBytes
	}

	for _, a := range m.sortedAttempts() {
		if a.relaunch == unseen || a.launch == unseen || a.key.Frag == reservedFrag {
			continue
		}
		end := a.relaunch
		if a.finish != unseen && a.finish < end {
			end = a.finish
		}
		lost := end - a.launch
		if lost < 0 {
			lost = 0
		}
		attribute(a, lost)
	}

	// Whole-stage restarts: fragment attempts of superseded epochs that
	// were not individually destroyed lose their work when the stage is
	// reset (reserved/receiver failures, §3.2.6 recovery).
	for _, a := range m.sortedAttempts() {
		if a.key.Frag == reservedFrag || a.launch == unseen || a.relaunch != unseen {
			continue
		}
		if a.key.Epoch >= m.finalEpoch(a.key.Stage) {
			continue
		}
		cutoff := m.jobEnd
		if next, ok := m.stages[stageKey{a.key.Stage, a.key.Epoch + 1}]; ok && next.sched != unseen {
			cutoff = next.sched
		}
		end := cutoff
		if a.finish != unseen && a.finish < end {
			end = a.finish
		}
		if lost := end - a.launch; lost > 0 {
			w.RestartComputeLostNS += int64(lost)
		}
	}

	w.Evictions = make([]EvictionCost, 0, len(costs))
	for idx, c := range costs {
		for s := range stageSets[idx] {
			c.Stages = append(c.Stages, s)
		}
		sort.Ints(c.Stages)
		w.Evictions = append(w.Evictions, *c)
	}
	sort.Slice(w.Evictions, func(i, j int) bool {
		a, b := w.Evictions[i], w.Evictions[j]
		if a.ComputeLostNS != b.ComputeLostNS {
			return a.ComputeLostNS > b.ComputeLostNS
		}
		if a.BytesLost != b.BytesLost {
			return a.BytesLost > b.BytesLost
		}
		return a.Index < b.Index
	})
	return w
}

// maxStragglers caps the straggler list so reports stay small on
// pathological runs.
const maxStragglers = 50

func stageSection(m *model, k float64) ([]StageReport, []Straggler) {
	ids := make([]int, 0, len(m.maxEpoch))
	for id := range m.maxEpoch {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	var stages []StageReport
	var stragglers []Straggler
	for _, id := range ids {
		final := m.finalEpoch(id)
		sr := StageReport{ID: id, Restarts: final - 1, ScheduledNS: -1, CompletedNS: -1}
		if s, ok := m.stages[stageKey{id, final}]; ok {
			sr.ScheduledNS = int64(s.sched)
			sr.CompletedNS = int64(s.complete)
		}
		var hist metrics.Histogram
		type sample struct {
			a   *attempt
			dur time.Duration
		}
		var samples []sample
		for e := 1; e <= final; e++ {
			s, ok := m.stages[stageKey{id, e}]
			if !ok {
				continue
			}
			sr.Launched += s.launched
			sr.Relaunched += s.relaunched
			sr.Failed += s.failed
			sr.Commits += s.commits
			sr.PushBytes += s.pushBytes
			sr.FetchBytes += s.fetchBytes
			for _, a := range m.byStage[stageKey{id, e}] {
				if a.key.Frag == reservedFrag || a.launch == unseen || a.finish == unseen {
					continue
				}
				d := a.finish - a.launch
				if d < 0 {
					d = 0
				}
				hist.ObserveDuration(d)
				samples = append(samples, sample{a, d})
			}
		}
		sr.Latency = hist.Snapshot()
		sr.P50NS = sr.Latency.Quantile(0.5)
		sr.P95NS = sr.Latency.Quantile(0.95)
		sr.MaxNS = sr.Latency.Max
		stages = append(stages, sr)

		// Straggler detection: attempts slower than k× the stage median.
		if len(samples) >= 4 {
			durs := make([]time.Duration, len(samples))
			for i, s := range samples {
				durs[i] = s.dur
			}
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			median := durs[len(durs)/2]
			if median > 0 {
				sort.Slice(samples, func(i, j int) bool {
					if samples[i].dur != samples[j].dur {
						return samples[i].dur > samples[j].dur
					}
					return lessKey(samples[i].a.key, samples[j].a.key)
				})
				for _, s := range samples {
					ratio := float64(s.dur) / float64(median)
					if ratio <= k {
						break // sorted descending; nothing further qualifies
					}
					stragglers = append(stragglers, Straggler{
						Stage: s.a.key.Stage, Frag: s.a.key.Frag, Task: s.a.key.Task,
						Attempt: s.a.key.Attempt, Exec: s.a.exec,
						DurNS: int64(s.dur), StageMedianNS: int64(median), Ratio: ratio,
					})
				}
			}
		}
	}
	sort.Slice(stragglers, func(i, j int) bool {
		if stragglers[i].Ratio != stragglers[j].Ratio {
			return stragglers[i].Ratio > stragglers[j].Ratio
		}
		a := attemptKey{stragglers[i].Stage, 0, stragglers[i].Frag, stragglers[i].Task, stragglers[i].Attempt}
		b := attemptKey{stragglers[j].Stage, 0, stragglers[j].Frag, stragglers[j].Task, stragglers[j].Attempt}
		return lessKey(a, b)
	})
	if len(stragglers) > maxStragglers {
		stragglers = stragglers[:maxStragglers]
	}
	return stages, stragglers
}

func lessKey(a, b attemptKey) bool {
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Frag != b.Frag {
		return a.Frag < b.Frag
	}
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	return a.Attempt < b.Attempt
}

func countersOf(s metrics.Snapshot) []NamedValue {
	out := []NamedValue{
		{metrics.NameOriginalTasks, s.OriginalTasks},
		{metrics.NameRelaunchedTasks, s.RelaunchedTasks},
		{metrics.NameEvictions, s.Evictions},
		{metrics.NameBytesPushed, s.BytesPushed},
		{metrics.NameBytesFetched, s.BytesFetched},
		{metrics.NameBytesCheckpointed, s.BytesCheckpointed},
		{metrics.NameCacheHits, s.CacheHits},
		{metrics.NameCacheMisses, s.CacheMisses},
	}
	names := make([]string, 0, len(s.Named))
	for name := range s.Named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, NamedValue{name, s.Named[name]})
	}
	return out
}

// WriteJSON writes the report as indented, deterministic JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Save writes the report JSON to path.
func (r *Report) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a report JSON from path.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// dur formats nanoseconds for humans.
func dur(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

// kb formats bytes for humans.
func kb(b int64) string {
	switch {
	case b >= 10<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 10<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// WriteText renders the report for terminals: run identity, critical
// path attribution, the most expensive evictions, per-stage latency
// summaries, and stragglers.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	min := func(ns int64) string {
		if r.ScaleNSPerMinute <= 0 {
			return dur(ns)
		}
		return fmt.Sprintf("%s (%.2f paper-min)", dur(ns), float64(ns)/float64(r.ScaleNSPerMinute))
	}

	job := ""
	if r.Job > 0 {
		job = fmt.Sprintf(" job=%d", r.Job)
	}
	if err := p("report %s: engine=%s workload=%s rate=%s seed=%d%s\n",
		r.Schema, r.Engine, r.Workload, r.Rate, r.Seed, job); err != nil {
		return err
	}
	timedOut := ""
	if r.TimedOut {
		timedOut = " TIMED OUT"
	}
	declared := ""
	if r.Containers.DeclaredDead > 0 {
		declared = fmt.Sprintf(", %d declared dead", r.Containers.DeclaredDead)
	}
	if err := p("jct: %s%s; %d events; containers: %d up, %d evicted, %d failed%s\n",
		min(r.JCTNS), timedOut, r.Events, r.Containers.Up, r.Containers.Evicted, r.Containers.Failed, declared); err != nil {
		return err
	}

	if err := p("critical path: %s in %d segments\n", min(r.CritPath.TotalNS), len(r.CritPath.Segments)); err != nil {
		return err
	}
	for _, c := range r.CritPath.ByClass {
		if err := p("  %-9s %5.1f%%  %s\n", c.Class, c.Frac*100, dur(c.NS)); err != nil {
			return err
		}
	}

	// Longest segments show where the time concentrated.
	segs := append([]Segment(nil), r.CritPath.Segments...)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Dur() > segs[j].Dur() })
	n := len(segs)
	if n > 8 {
		n = 8
	}
	if n > 0 {
		if err := p("longest segments:\n"); err != nil {
			return err
		}
	}
	for _, s := range segs[:n] {
		loc := fmt.Sprintf("stage %d", s.Stage)
		if s.Task >= 0 {
			loc += fmt.Sprintf(" task %d/%d attempt %d", s.Frag, s.Task, s.Attempt)
		}
		exec := ""
		if s.Exec != "" {
			exec = " on " + s.Exec
		}
		if err := p("  %9s  %-9s %s%s (%s)\n", dur(s.EndNS-s.StartNS), s.Class, loc, exec, s.Note); err != nil {
			return err
		}
	}

	wa := r.Waste
	if err := p("waste: %d/%d evictions destroyed work: %d tasks, %s compute, %s pushed\n",
		len(wa.Evictions), wa.EvictionsTotal, wa.TasksKilled, dur(wa.ComputeLostNS), kb(wa.BytesLost)); err != nil {
		return err
	}
	for i, e := range wa.Evictions {
		if i == 10 {
			if err := p("  ... %d more\n", len(wa.Evictions)-10); err != nil {
				return err
			}
			break
		}
		cause := ""
		if e.Cause != "" {
			cause = " (declared dead: " + e.Cause + ")"
		}
		if err := p("  #%-3d %-6s @ %9s: %2d tasks, %9s compute, %8s, stages %v%s\n",
			e.Index, e.Exec, dur(e.AtNS), e.TasksKilled, dur(e.ComputeLostNS), kb(e.BytesLost), e.Stages, cause); err != nil {
			return err
		}
	}
	if wa.FailureTasks > 0 || wa.RestartComputeLostNS > 0 {
		if err := p("  non-eviction waste: %d failed tasks (%s), stage restarts %s\n",
			wa.FailureTasks, dur(wa.FailureComputeLostNS), dur(wa.RestartComputeLostNS)); err != nil {
			return err
		}
	}

	if d := r.Detection; d != nil {
		if err := p("detection: %d declared dead; suspicions %d raised / %d cleared; %d heartbeats missed; %d breaker opens\n",
			len(d.Declared), d.SuspicionsRaised, d.SuspicionsCleared, d.HeartbeatsMissed, d.BreakerOpens); err != nil {
			return err
		}
		for _, decl := range d.Declared {
			lat := "no injection recorded"
			if decl.LatencyNS >= 0 {
				lat = dur(decl.LatencyNS) + " after injection"
			}
			if err := p("  %-6s declared dead @ %9s (%s): %s\n",
				decl.Exec, dur(decl.AtNS), decl.Note, lat); err != nil {
				return err
			}
		}
		if d.RPCRetries > 0 || d.RPCBackoffNS > 0 {
			if err := p("  rpc waste: %d retries, %s in backoff\n",
				d.RPCRetries, dur(d.RPCBackoffNS)); err != nil {
				return err
			}
		}
	}

	if c := r.Cache; c != nil {
		if err := p("cache: %d/%d probes hit; skipped %d stages, %d tasks (%d tasks of compute avoided)\n",
			c.Hits, c.Probes, c.StagesSkipped, c.TasksSkipped, c.ComputeAvoidedTasks); err != nil {
			return err
		}
		if err := p("  commit store: %s served, %s written, %d manifests committed\n",
			kb(c.CASBytesServed), kb(c.CASBytesWritten), c.Writes); err != nil {
			return err
		}
	}

	if err := p("stages:\n  %5s %9s %9s %8s %6s %10s %6s %9s %9s %9s\n",
		"stage", "sched", "done", "restarts", "tasks", "relaunched", "n", "p50", "p95", "max"); err != nil {
		return err
	}
	for _, s := range r.Stages {
		done := "-"
		if s.CompletedNS >= 0 {
			done = dur(s.CompletedNS)
		}
		sched := "-"
		if s.ScheduledNS >= 0 {
			sched = dur(s.ScheduledNS)
		}
		if err := p("  %5d %9s %9s %8d %6d %10d %6d %9s %9s %9s\n",
			s.ID, sched, done, s.Restarts, s.Launched, s.Relaunched,
			s.Latency.Count, dur(s.P50NS), dur(s.P95NS), dur(s.MaxNS)); err != nil {
			return err
		}
	}

	if len(r.Stragglers) > 0 {
		if err := p("stragglers (vs. stage median):\n"); err != nil {
			return err
		}
	}
	for i, s := range r.Stragglers {
		if i == 10 {
			if err := p("  ... %d more\n", len(r.Stragglers)-10); err != nil {
				return err
			}
			break
		}
		if err := p("  stage %d task %d/%d attempt %d: %s = %.1fx median %s on %s\n",
			s.Stage, s.Frag, s.Task, s.Attempt, dur(s.DurNS), s.Ratio, dur(s.StageMedianNS), s.Exec); err != nil {
			return err
		}
	}
	return nil
}
