package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/obs"
)

// Invariant names used in violations.
const (
	// InvExactlyOnce: every pushed task output is committed exactly once
	// per (stage epoch, frag, task) — the §3.2.5 output-commit claim.
	InvExactlyOnce = "exactly-once-commit"
	// InvNoParentRelaunch: a completed stage is only rescheduled after a
	// reserved-container or receiver failure — transient evictions must
	// never recompute parents (§3.2.5).
	InvNoParentRelaunch = "no-parent-relaunch"
	// InvRestartCause: any stage restart follows a failure cause (a
	// reserved-container failure or receiver failure) observed since the
	// stage was last scheduled.
	InvRestartCause = "restart-without-cause"
	// InvTopoOrder: whenever a stage is (re)scheduled, all of its
	// parents are complete — recovery replays ancestors in topological
	// order (§3.2.6).
	InvTopoOrder = "recovery-topo-order"
	// InvOutput: job output differs from the fault-free golden run.
	InvOutput = "output-mismatch"
	// InvDetectionBound: every silently killed, hung, or grayed node is
	// declared dead by the failure detector within the bound.
	InvDetectionBound = "detection-bound"
	// InvFalsePositive: no node is declared dead without an injected
	// unannounced fault implicating it — latency storms, announced
	// evictions, and healthy load must never look like death.
	InvFalsePositive = "false-positive-dead"
)

// Violation is one invariant breach.
type Violation struct {
	Invariant string
	Detail    string
}

// String renders the violation.
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report is the checker's verdict over one run's event stream.
type Report struct {
	Events     int
	Injections int
	Commits    int
	Violations []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders a one-look summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos check: %d events, %d injections, %d commits: ",
		r.Events, r.Injections, r.Commits)
	if r.OK() {
		b.WriteString("all invariants held")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violation(s)", len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  " + v.String())
	}
	return b.String()
}

// Digest is a hex digest of the checker verdict plus the job's canonical
// output: two runs with the same seed and plan must produce equal
// digests (the raw event interleaving is timing-dependent, but the
// invariant verdicts and committed output are not).
func (r *Report) Digest(canonicalOutput []byte) string {
	vs := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		vs = append(vs, v.String())
	}
	sort.Strings(vs)
	h := sha256.New()
	for _, v := range vs {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	h.Write(canonicalOutput)
	return hex.EncodeToString(h.Sum(nil))
}

// CompareOutput appends an InvOutput violation when got differs from the
// golden (fault-free) canonical output.
func (r *Report) CompareOutput(golden, got []byte) {
	if !bytes.Equal(golden, got) {
		r.Violations = append(r.Violations, Violation{
			Invariant: InvOutput,
			Detail:    fmt.Sprintf("golden %d bytes != got %d bytes", len(golden), len(got)),
		})
	}
}

// Canonical renders job outputs in a byte-stable form: vertices sorted
// by id, records sorted by rendered key then value. Fault-free and
// faulted runs of the same job must produce equal canonical bytes.
func Canonical(outputs map[dag.VertexID][]data.Record) []byte {
	vids := make([]int, 0, len(outputs))
	for vid := range outputs {
		vids = append(vids, int(vid))
	}
	sort.Ints(vids)
	var b bytes.Buffer
	for _, vid := range vids {
		recs := outputs[dag.VertexID(vid)]
		lines := make([]string, 0, len(recs))
		for _, rec := range recs {
			lines = append(lines, fmt.Sprintf("%v\x00%v", rec.Key, rec.Value))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "vertex %d (%d records)\n", vid, len(recs))
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// CheckDetection verifies the failure-detection invariants over one
// run's merged event stream and returns violations to merge into a
// Report:
//
//   - detection-bound: every node hit by an unannounced kill-silent,
//     hang, or gray injection is declared dead (node_declared_dead)
//     within bound of the injection;
//   - false-positive-dead: every node_declared_dead corresponds to an
//     injected unannounced fault implicating that node (by target id, or
//     by prefix for partitions). On plans with no such injections —
//     latency storms, announced evictions — any declaration at all is a
//     false positive.
//
// Injections are matched through the chaos_injected events record()
// emits (Note: "<ruleID> <op> <detail>", Exec: target), so the checker
// needs no side channel to the engine.
func CheckDetection(events []obs.Event, bound time.Duration) []Violation {
	type injection struct {
		op     string
		target string
		t      time.Duration
	}
	var injected []injection
	var out []Violation
	declared := make(map[string]time.Duration) // exec -> first declaration time
	var declOrder []string

	for _, ev := range events {
		switch ev.Kind {
		case obs.ChaosInjected:
			fields := strings.Fields(ev.Note)
			if len(fields) < 2 {
				continue
			}
			switch op := fields[1]; op {
			case OpKillSilent, OpHang, OpGray, OpPartition:
				injected = append(injected, injection{op: op, target: ev.Exec, t: ev.T})
			}
		case obs.NodeDeclaredDead:
			if _, ok := declared[ev.Exec]; !ok {
				declared[ev.Exec] = ev.T
				declOrder = append(declOrder, ev.Exec)
			}
		}
	}

	for _, inj := range injected {
		if inj.op == OpPartition {
			continue // may or may not isolate a full node
		}
		t, ok := declared[inj.target]
		switch {
		case !ok:
			out = append(out, Violation{
				Invariant: InvDetectionBound,
				Detail:    fmt.Sprintf("%s target %s never declared dead", inj.op, inj.target),
			})
		case t-inj.t > bound:
			out = append(out, Violation{
				Invariant: InvDetectionBound,
				Detail: fmt.Sprintf("%s target %s declared dead %v after injection (bound %v)",
					inj.op, inj.target, t-inj.t, bound),
			})
		}
	}

	for _, exec := range declOrder {
		legit := false
		for _, inj := range injected {
			if inj.op == OpPartition {
				// Partition targets are recorded as "from->to" prefixes:
				// either side of the cut may be quarantined.
				from, to, _ := strings.Cut(inj.target, "->")
				if strings.HasPrefix(exec, from) || (to != "" && strings.HasPrefix(exec, to)) {
					legit = true
					break
				}
			} else if inj.target == exec {
				legit = true
				break
			}
		}
		if !legit {
			out = append(out, Violation{
				Invariant: InvFalsePositive,
				Detail:    fmt.Sprintf("node %s declared dead with no unannounced fault injected against it", exec),
			})
		}
	}
	return out
}

// commitKey identifies one task output within one stage scheduling epoch.
type commitKey struct {
	Stage, Epoch, Frag, Task int
}

// Check replays a merged obs event stream (a Pado runtime run) and
// verifies the eviction-tolerance protocol invariants. parents maps each
// stage id to its parent stage ids (from core.PhysStage.Parents).
//
// Events are processed in slice order: the master emits all
// control-plane events from one buffer, so their relative order is the
// order the master observed.
func Check(events []obs.Event, parents map[int][]int) *Report {
	r := &Report{Events: len(events)}

	return check(events, parents, r)
}

// CheckJob verifies the protocol invariants for one job of a multi-job
// manager run: only events tagged with that job id (plus fleet-wide
// events, Job 0, which carry the failure causes — container evictions
// and failures — every job's protocol reacts to) are replayed. parents
// is that job's stage parent map.
func CheckJob(events []obs.Event, job int, parents map[int][]int) *Report {
	filtered := make([]obs.Event, 0, len(events))
	for _, ev := range events {
		if ev.Job == job || ev.Job == 0 {
			filtered = append(filtered, ev)
		}
	}
	r := &Report{Events: len(filtered)}
	return check(filtered, parents, r)
}

func check(events []obs.Event, parents map[int][]int, r *Report) *Report {

	epoch := make(map[int]int)        // stage -> current scheduling epoch
	lastSched := make(map[int]int)    // stage -> event index of last StageScheduled
	lastComplete := make(map[int]int) // stage -> event index of last StageComplete
	completed := make(map[int]bool)   // stage completed in its current epoch
	commits := make(map[commitKey]int)
	lastCause := -1 // index of last reserved/receiver failure

	for i, ev := range events {
		switch ev.Kind {
		case obs.ChaosInjected:
			r.Injections++
		case obs.ContainerFailed:
			lastCause = i
		case obs.NodeDeclaredDead:
			// A reserved node the failure detector gave up on restarts its
			// stages exactly like an announced reserved failure (§3.2.6);
			// the note leads with the container kind.
			if strings.HasPrefix(ev.Note, "reserved") {
				lastCause = i
			}
		case obs.TaskFailed:
			if ev.Frag == obs.ReservedFrag {
				lastCause = i // receiver failure forces a stage restart
			}
		case obs.StageScheduled:
			restart := epoch[ev.Stage] > 0
			epoch[ev.Stage]++
			if restart {
				since := lastSched[ev.Stage]
				if completed[ev.Stage] {
					since = lastComplete[ev.Stage]
					if lastCause < since {
						r.Violations = append(r.Violations, Violation{
							Invariant: InvNoParentRelaunch,
							Detail: fmt.Sprintf("completed stage %d rescheduled (epoch %d) with no reserved/receiver failure since it completed",
								ev.Stage, epoch[ev.Stage]),
						})
					}
				} else if lastCause < since {
					r.Violations = append(r.Violations, Violation{
						Invariant: InvRestartCause,
						Detail: fmt.Sprintf("stage %d restarted (epoch %d) with no reserved/receiver failure since its last schedule",
							ev.Stage, epoch[ev.Stage]),
					})
				}
			}
			completed[ev.Stage] = false
			lastSched[ev.Stage] = i
			for _, p := range parents[ev.Stage] {
				if !completed[p] {
					r.Violations = append(r.Violations, Violation{
						Invariant: InvTopoOrder,
						Detail: fmt.Sprintf("stage %d scheduled (epoch %d) before parent %d completed",
							ev.Stage, epoch[ev.Stage], p),
					})
				}
			}
		case obs.StageComplete:
			completed[ev.Stage] = true
			lastComplete[ev.Stage] = i
		case obs.PushCommitted:
			r.Commits++
			if ev.Frag >= 0 {
				commits[commitKey{Stage: ev.Stage, Epoch: epoch[ev.Stage], Frag: ev.Frag, Task: ev.Task}]++
			}
		}
	}

	keys := make([]commitKey, 0, len(commits))
	for k := range commits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Frag != b.Frag {
			return a.Frag < b.Frag
		}
		return a.Task < b.Task
	})
	for _, k := range keys {
		if n := commits[k]; n > 1 {
			r.Violations = append(r.Violations, Violation{
				Invariant: InvExactlyOnce,
				Detail: fmt.Sprintf("stage %d epoch %d frag %d task %d committed %d times",
					k.Stage, k.Epoch, k.Frag, k.Task, n),
			})
		}
	}
	return r
}
