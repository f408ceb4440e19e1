package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"pado/internal/chaos"
	"pado/internal/metrics"
	"pado/internal/runtime"
)

// JobSpec describes one job of a multi-job experiment; everything else
// comes from the enclosing Params.
type JobSpec struct {
	Workload Workload
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
	return q
}

// JobOutcome is one job's result within a multi-job run.
type JobOutcome struct {
	Spec  JobSpec
	Name  string
	JobID int

	// Outcome is the job's own: its Chaos is the per-job invariant
	// verdict (CheckJob over the shared trace), its Digest that verdict
	// plus the canonical output, its Report scoped to the job's events.
	// Zero when the job never produced a result.
	Outcome

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
			j.Name, j.JobID, jct, j.RelaunchRatio*100, status)
	}
	fmt.Fprintf(&b, "makespan=%.1f min total-jct=%.1f min", m.MakespanMinutes, m.TotalJCTMinutes())
	return b.String()
}

// RunJobs executes p.Jobs concurrently on one shared cluster under a
// single runtime.JobManager: one admission-controlled, round-robin
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
	c, err := p.start()
	if err != nil {
		return MultiOutcome{}, err
	}
	defer c.stop()

	// Every job gets an even carve of the cell's reserved-slot budget:
	// left to the manager's default, every job would demand the whole
	// budget and the batch would serialize.
	share := 0
	if budget := p.clusterConfig().PlacementEnv().ReservedSlotBudget; budget > 0 {
		share = max(budget/len(p.Jobs), 1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), p.Scale.Wall(p.TimeoutMinutes))
	defer cancel()

	type jobRes struct {
		f   *finished
		id  int
		err error
	}
	results := make([]jobRes, len(p.Jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, spec := range p.Jobs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			r := &results[i]
			if spec.StaggerMinutes > 0 {
				select {
				case <-time.After(p.Scale.Wall(spec.StaggerMinutes)):
				case <-ctx.Done():
					r.err = ctx.Err()
					return
				}
			}
			r.f, r.id, r.err = c.runPado(ctx, p.jobParams(spec), runtime.JobOptions{
				Name:          spec.name(i),
				ReservedSlots: share,
				Metrics:       &metrics.Job{},
			})
		}(i, spec)
	}
	wg.Wait()
	makespan := time.Since(start)
	c.stop()

	out := MultiOutcome{Params: p, MakespanMinutes: p.Scale.Minutes(makespan)}
	if c.chaos != nil {
		out.Injections = c.chaos.Injections()
	}
	for i, spec := range p.Jobs {
		r := results[i]
		jo := JobOutcome{Spec: spec, Name: spec.name(i), JobID: r.id, Err: r.err}
		if r.f != nil {
			if jo.Outcome, err = c.outcome(p.jobParams(spec), r.f, r.id, "-"+jo.Name); err != nil {
				return MultiOutcome{}, err
			}
		}
		out.Jobs = append(out.Jobs, jo)
	}

	if p.ReportDir != "" {
		// The aggregate spans workloads; exportBase's single-workload name
		// would mislabel it.
		rep := p.analysis(c.events, nil, c.met.Snapshot(makespan, false), 0, true)
		base := strings.ToLower(fmt.Sprintf("%s-multi-%s-seed%d-aggregate", p.Engine, p.Rate, p.Seed))
		if out.AggregatePath, err = p.saveReport(rep, base); err != nil {
			return MultiOutcome{}, err
		}
	}
	return out, nil
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
