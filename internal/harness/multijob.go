package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pado/internal/chaos"
	"pado/internal/introspect"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/obs/analyze"
	"pado/internal/runtime"
)

// JobSpec describes one job of a multi-job experiment. Zero-valued
// fields inherit the enclosing Params defaults.
type JobSpec struct {
	Workload Workload
	// Size scales this job's workload volume (0 = Params.Size).
	Size float64
	// Policy overrides the placement policy ("" = Params.Policy).
	Policy string
	// Weight is the job's fair-scheduling share (0 = 1).
	Weight float64
	// Priority orders the manager's admission queue.
	Priority int
	// ReservedSlots is the job's admission demand against the cell's
	// reserved-slot budget (0 = an even share of the budget, so that
	// every spec of the batch can admit concurrently).
	ReservedSlots int
	// StaggerMinutes delays this job's submission by paper minutes
	// after the experiment starts.
	StaggerMinutes float64
}

func (s JobSpec) name(i int) string {
	return fmt.Sprintf("%s-%d", strings.ToLower(s.Workload.String()), i+1)
}

// jobParams derives per-spec experiment params from the shared defaults.
func (p Params) jobParams(s JobSpec) Params {
	q := p
	q.Engine = EnginePado
	q.Workload = s.Workload
	if s.Size > 0 {
		q.Size = s.Size
	}
	if s.Policy != "" {
		q.Policy = s.Policy
	}
	return q
}

// JobOutcome is one job's result within a multi-job run.
type JobOutcome struct {
	Spec  JobSpec
	Name  string
	JobID int

	JCTMinutes float64
	TimedOut   bool
	Metrics    metrics.Snapshot

	// Chaos is the per-job invariant verdict (CheckJob over the shared
	// trace) and Digest its determinism fingerprint (verdict + canonical
	// output).
	Chaos  *chaos.Report
	Digest string

	// ReportPath is this job's analyzer report (ReportDir set only).
	ReportPath string

	// Err is the job's failure (abort, rejection, manager shutdown).
	Err error
}

// MultiOutcome summarizes one multi-job run on a shared cluster.
type MultiOutcome struct {
	Params Params
	Jobs   []JobOutcome

	// MakespanMinutes is first-submission-to-last-completion in paper
	// minutes: the concurrent cost of the whole batch.
	MakespanMinutes float64

	// AggregatePath is the whole-fleet analyzer report (ReportDir only).
	AggregatePath string

	// Injections lists applied chaos faults (fleet-wide).
	Injections []chaos.Injection
}

// OK reports whether every job completed without error or timeout and
// every per-job invariant check passed.
func (m MultiOutcome) OK() bool {
	for _, j := range m.Jobs {
		if j.Err != nil || j.TimedOut {
			return false
		}
		if j.Chaos != nil && !j.Chaos.OK() {
			return false
		}
	}
	return true
}

// TotalJCTMinutes sums the per-job completion times (the serial-cost
// equivalent of the batch, as experienced by each submitter).
func (m MultiOutcome) TotalJCTMinutes() float64 {
	var sum float64
	for _, j := range m.Jobs {
		sum += j.JCTMinutes
	}
	return sum
}

// Speedup compares a serial baseline's total runtime against this run's
// makespan (>1 means sharing the cluster beat running the jobs one
// after another).
func (m MultiOutcome) Speedup(serialTotalMinutes float64) float64 {
	if m.MakespanMinutes <= 0 {
		return 0
	}
	return serialTotalMinutes / m.MakespanMinutes
}

// String renders one row per job plus the makespan summary.
func (m MultiOutcome) String() string {
	var b strings.Builder
	for _, j := range m.Jobs {
		jct := fmt.Sprintf("%.1f", j.JCTMinutes)
		status := "ok"
		switch {
		case j.Err != nil:
			status = "error: " + j.Err.Error()
		case j.TimedOut:
			status = "TIMED OUT"
			jct = fmt.Sprintf(">%.0f", j.JCTMinutes)
		case j.Chaos != nil && !j.Chaos.OK():
			status = fmt.Sprintf("%d invariant violation(s)", len(j.Chaos.Violations))
		}
		fmt.Fprintf(&b, "job %-8s id=%d jct=%6s min relaunched=%5.0f%% %s\n",
			j.Name, j.JobID, jct, j.Metrics.RelaunchRatio()*100, status)
	}
	fmt.Fprintf(&b, "makespan=%.1f min total-jct=%.1f min", m.MakespanMinutes, m.TotalJCTMinutes())
	return b.String()
}

// RunJobs executes p.Jobs concurrently on one shared cluster under a
// single runtime.JobManager: one admission-controlled, weighted-fair
// multi-job master instead of the single path's one-cluster-per-job.
// Tracing is always on (per-job invariant checks and digests need the
// merged event stream); chaos plans apply fleet-wide, with per-job
// targeting via Trigger.Job/Fault.Job.
func RunJobs(p Params) (MultiOutcome, error) {
	p = p.withDefaults()
	if len(p.Jobs) == 0 {
		return MultiOutcome{}, fmt.Errorf("harness: RunJobs needs at least one JobSpec")
	}
	if p.Engine != EnginePado {
		return MultiOutcome{}, fmt.Errorf("harness: multi-job mode requires the Pado engine")
	}

	cl, err := p.newCluster()
	if err != nil {
		return MultiOutcome{}, err
	}
	tracer := obs.New()
	fleet := &metrics.Job{}
	tracer.FeedCounters(fleet)

	var engine *chaos.Engine
	if p.Chaos != nil {
		engine = chaos.NewEngine(p.Chaos, cl)
		engine.Attach(tracer)
		defer engine.Stop()
	}

	env := p.clusterConfig().PlacementEnv()
	// Specs without an explicit demand get an even carve of the cell's
	// reserved-slot budget: left to the manager's default, every job
	// would demand the whole budget and the batch would serialize.
	share := 0
	if env.ReservedSlotBudget > 0 {
		share = env.ReservedSlotBudget / len(p.Jobs)
		if share < 1 {
			share = 1
		}
	}

	jm, err := runtime.NewJobManager(cl, runtime.ManagerConfig{
		Env:     env,
		Tracer:  tracer,
		Metrics: fleet,
		Failure: p.Failure,
	})
	if err != nil {
		return MultiOutcome{}, err
	}
	defer jm.Close()

	if p.HTTPAddr != "" {
		srv, err := introspect.Start(introspect.Options{
			Addr: p.HTTPAddr, Manager: jm, Tracer: tracer,
		})
		if err != nil {
			return MultiOutcome{}, err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "introspection plane listening on http://%s\n", srv.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), p.Scale.Wall(p.TimeoutMinutes))
	defer cancel()

	type jobRes struct {
		res    *runtime.Result
		handle *runtime.JobHandle
		err    error
	}
	results := make([]jobRes, len(p.Jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, spec := range p.Jobs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			if spec.StaggerMinutes > 0 {
				select {
				case <-time.After(p.Scale.Wall(spec.StaggerMinutes)):
				case <-ctx.Done():
					results[i].err = ctx.Err()
					return
				}
			}
			q := p.jobParams(spec)
			cfg, err := q.PadoRuntimeConfig(tracer, engine)
			if err != nil {
				results[i].err = err
				return
			}
			met := &metrics.Job{}
			demand := spec.ReservedSlots
			if demand == 0 {
				demand = share
			}
			h, err := jm.Submit(q.pipeline().Graph(), cfg, runtime.JobOptions{
				Name:          spec.name(i),
				Weight:        spec.Weight,
				Priority:      spec.Priority,
				ReservedSlots: demand,
				Metrics:       met,
			})
			if err != nil {
				results[i].err = err
				return
			}
			results[i].handle = h
			results[i].res, results[i].err = h.Wait(ctx)
		}(i, spec)
	}
	wg.Wait()
	makespan := time.Since(start)

	if engine != nil {
		engine.Stop()
	}
	events := tracer.Events()

	out := MultiOutcome{Params: p, MakespanMinutes: p.Scale.Minutes(makespan)}
	if engine != nil {
		out.Injections = engine.Injections()
	}
	for i, spec := range p.Jobs {
		jo := JobOutcome{Spec: spec, Name: spec.name(i), Err: results[i].err}
		if h := results[i].handle; h != nil {
			jo.JobID = h.ID()
		}
		if res := results[i].res; res != nil {
			jo.Metrics = res.Metrics
			jo.TimedOut = res.Metrics.TimedOut
			jo.JCTMinutes = p.Scale.Minutes(res.Metrics.JCT)
			if jo.TimedOut {
				jo.JCTMinutes = p.TimeoutMinutes
			}
			parents := make(map[int][]int, len(res.Plan.Stages))
			for _, ps := range res.Plan.Stages {
				parents[ps.ID] = ps.Parents
			}
			jo.Chaos = chaos.CheckJob(events, jo.JobID, parents)
			jo.Digest = jo.Chaos.Digest(chaos.Canonical(res.Outputs))
			if p.ReportDir != "" {
				q := p.jobParams(spec)
				path, err := writeJobReport(q, events, parents, res.Metrics, jo.JobID, jo.Name)
				if err != nil {
					return MultiOutcome{}, err
				}
				jo.ReportPath = path
			}
		}
		out.Jobs = append(out.Jobs, jo)
	}

	if p.ReportDir != "" {
		snap := fleet.Snapshot(makespan, false)
		path, err := writeJobReport(p, events, nil, snap, 0, "aggregate")
		if err != nil {
			return MultiOutcome{}, err
		}
		out.AggregatePath = path
	}
	return out, nil
}

// writeJobReport writes one job-scoped (or, with job 0, fleet-aggregate)
// analyzer report into p.ReportDir.
func writeJobReport(p Params, events []obs.Event, stageParents map[int][]int, snap metrics.Snapshot, job int, label string) (string, error) {
	opts := analyze.Options{
		StageParents: stageParents,
		Scale:        analyze.ScaleInfo{WallPerMinute: p.Scale.WallPerMinute},
		JCT:          snap.JCT,
		TimedOut:     snap.TimedOut,
		Engine:       strings.ToLower(p.Engine.String()),
		Workload:     strings.ToLower(p.Workload.String()),
		Rate:         p.Rate.String(),
		Seed:         p.Seed,
		Job:          job,
		Policy:       p.policyLabel(),
		Snapshot:     &snap,
	}
	if job == 0 {
		opts.Workload = "multi"
		opts.Policy = ""
	}
	rep := analyze.Analyze(events, opts)
	if err := os.MkdirAll(p.ReportDir, 0o755); err != nil {
		return "", fmt.Errorf("harness: report dir: %w", err)
	}
	base := exportBase(p)
	if job == 0 {
		// The aggregate spans workloads; exportBase's single-workload
		// name would mislabel it.
		base = strings.ToLower(fmt.Sprintf("%s-multi-%s-seed%d", p.Engine, p.Rate, p.Seed))
	}
	path := filepath.Join(p.ReportDir, base+"-"+label+".report.json")
	return path, rep.Save(path)
}

// RunJobsSerial runs the same specs one after another, each on a fresh
// cluster of the same shape and seed (the classic one-job-per-cluster
// path), and returns the outcomes plus the summed JCT in paper minutes.
// It is the baseline RunJobs' speedup is measured against; chaos plans
// are ignored (they script multi-job interleavings).
func RunJobsSerial(p Params) ([]Outcome, float64, error) {
	p = p.withDefaults()
	var outs []Outcome
	var total float64
	for i, spec := range p.Jobs {
		q := p.jobParams(spec)
		q.Jobs = nil
		q.Chaos = nil
		q.ForceTrace = true
		if q.ReportDir != "" {
			// Serial reports would collide with the multi-job names;
			// the serial baseline is about JCT only.
			q.ReportDir = ""
		}
		out, err := runOnce(q)
		if err != nil {
			return nil, 0, fmt.Errorf("harness: serial job %s: %w", spec.name(i), err)
		}
		outs = append(outs, out)
		total += out.JCTMinutes
	}
	return outs, total, nil
}
