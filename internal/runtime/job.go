package runtime

import (
	"context"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/obs"
)

// Result carries a finished job's terminal outputs and metrics.
type Result struct {
	// Outputs maps each terminal stage's root vertex to its records.
	Outputs map[dag.VertexID][]data.Record
	// Metrics summarizes the run.
	Metrics metrics.Snapshot
	// Plan is the compiled physical plan that was executed.
	Plan *core.Plan
	// Progress is the final replicated progress metadata (§3.2.6).
	Progress *Progress
}

// Run compiles the logical DAG with the Pado compiler and executes it on
// the cluster as the only job of a transient JobManager. Run owns the
// cluster's lifecycle: it starts the containers and stops everything on
// return, so each cluster value runs exactly one job (matching the
// paper's one-job-per-cluster experiments). Multi-job callers use
// NewJobManager + Submit instead.
//
// If ctx expires the job is abandoned and the result reports TimedOut
// with the elapsed time, mirroring the paper's "does not finish for more
// than 90 minutes" observations.
func Run(ctx context.Context, cl *cluster.Cluster, g *dag.Graph, cfg Config) (*Result, error) {
	plan, err := core.Compile(g, cfg.Plan)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, cl, plan, cfg)
}

// RunPlan executes an already compiled plan (used by ablations that
// modify placement before running). It runs a single-job manager with
// admission control disabled, preserving the classic one-master-per-job
// behavior.
func RunPlan(ctx context.Context, cl *cluster.Cluster, plan *core.Plan, cfg Config) (*Result, error) {
	met := &metrics.Job{}
	jm, err := NewJobManager(cl, ManagerConfig{
		Tracer:  cfg.Tracer,
		Metrics: met,
		Failure: cfg.Failure,
		Commits: cfg.Commits,
	})
	if err != nil {
		return nil, err
	}
	defer jm.Close()
	h, err := jm.SubmitPlan(plan, cfg, JobOptions{Metrics: met})
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// collectOutputs gathers one finished job's terminal stage outputs:
// reserved stage outputs are fetched from their executors over the
// network; terminal transient results were already pushed to the
// collector. Runs on a per-job goroutine after the job leaves the event
// loop, so j's state is no longer mutated concurrently.
func (jm *JobManager) collectOutputs(j *jobRun) (map[dag.VertexID][]data.Record, error) {
	out := make(map[dag.VertexID][]data.Record)
	for _, s := range j.stages {
		if !s.ps.Terminal() {
			continue
		}
		root := j.plan.Graph.Vertex(s.ps.Root)
		coder, err := dataflow.OutputCoder(root)
		if err != nil {
			return nil, err
		}
		var recs []data.Record
		if s.ps.RootReserved {
			// A skipped terminal stage has no outputExecs; its partitions
			// come straight from the commit store.
			loc := stageLoc{Gen: s.gen, Execs: s.outputExecs, Chunks: s.skipChunks}
			recs, err = fetchStage(jm.dp, jm.casClient(), j.met, nil, j.id,
				obs.Event{Stage: s.ps.ID}, loc, allParts(loc), coder)
			if err != nil {
				return nil, err
			}
		} else {
			for _, payload := range s.results {
				part, err := data.DecodeAll(coder, payload)
				if err != nil {
					return nil, err
				}
				recs = append(recs, part...)
			}
		}
		out[root.ID] = recs
	}
	return out, nil
}
