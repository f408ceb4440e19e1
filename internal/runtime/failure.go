package runtime

import (
	"sort"
	"sync"
	"time"
)

// This file is the master half of the failure-handling plane: the
// configuration shared by the detector and the RPC policy, and the
// heartbeat-driven failure detector itself.
//
// The paper's runtime recovers from failures the resource manager
// announces (container evictions, §3.2.5; reserved faults, §3.2.6). Real
// datacenters give no such oracle for silent kills, hangs, or gray
// nodes, so executors heartbeat the master over the data plane and the
// master runs an alive → suspect → dead state machine per node. A dead
// declaration drives the same recovery paths the announcements drive —
// the cluster callback is demoted to a fast-path hint that merely skips
// the detection delay.

// FailureConfig parameterizes the failure-handling plane: heartbeat
// cadence and the detector's suspicion/declaration bounds on the master
// side, and the deadline/backoff/budget/breaker RPC policy applied by
// every data-plane connection pool.
type FailureConfig struct {
	// DisableDetector turns off heartbeats and the failure detector;
	// only announced failures recover (the pre-detector behavior).
	DisableDetector bool
	// HeartbeatEvery is the executor heartbeat period. Default 100ms.
	HeartbeatEvery time.Duration
	// SuspectAfter is the heartbeat staleness that moves a node from
	// alive to suspect. Default 4x the heartbeat period.
	SuspectAfter time.Duration
	// DeadAfter is the staleness bound that declares a suspect node
	// dead and triggers eviction-style recovery. It must be generous
	// enough that scheduling stalls on a loaded host never look like
	// death (false positives restart real work). Default 15x the
	// heartbeat period.
	DeadAfter time.Duration
	// GrayAfter is how long a gray signal (breaker-open reports in
	// heartbeat payloads) must persist before the implicated node is
	// declared dead. Default 5x the heartbeat period.
	GrayAfter time.Duration

	// DisableRPCPolicy turns off the retry/backoff/budget/breaker layer
	// on connection pools, restoring the bare retry-once pool.
	DisableRPCPolicy bool
	// RPCDeadline bounds each data-plane operation attempt (push,
	// fetch, store, collect, progress). Zero (the default) disables
	// per-op deadlines: legitimate large transfers on slow simulated
	// links can take arbitrarily long, and hang recovery works through
	// heartbeats alone. Chaos scenarios set it explicitly.
	RPCDeadline time.Duration
	// RPCMaxRetries is how many extra attempts the policy layers over
	// the pool's reuse-retry, with exponential backoff between them.
	// Default 2.
	RPCMaxRetries int
	// RPCBackoffBase and RPCBackoffMax bound the jittered exponential
	// backoff between retries. Defaults 2ms and 20ms.
	RPCBackoffBase time.Duration
	RPCBackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// destination's circuit breaker; while open, operations fail fast
	// with storage.ErrQuarantined and the destination is reported gray in
	// heartbeats. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting
	// probe traffic through (half-open). Default 40ms.
	BreakerCooldown time.Duration
}

func (c FailureConfig) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return 100 * time.Millisecond
	}
	return c.HeartbeatEvery
}

func (c FailureConfig) suspectAfter() time.Duration {
	if c.SuspectAfter <= 0 {
		return 4 * c.heartbeatEvery()
	}
	return c.SuspectAfter
}

func (c FailureConfig) deadAfter() time.Duration {
	if c.DeadAfter <= 0 {
		return 15 * c.heartbeatEvery()
	}
	return c.DeadAfter
}

func (c FailureConfig) grayAfter() time.Duration {
	if c.GrayAfter <= 0 {
		return 5 * c.heartbeatEvery()
	}
	return c.GrayAfter
}

// grayMinDests is the minimum number of distinct live nodes a gray signal
// must span: a reporter whose breakers are open toward at least this many
// live destinations is itself declared gray-dead, and a destination
// reported open by at least this many distinct live reporters is declared
// gray-dead. One flaky link never quarantines anyone.
const grayMinDests = 2

func (c FailureConfig) rpcMaxRetries() int {
	if c.RPCMaxRetries < 0 {
		return 0
	}
	if c.RPCMaxRetries == 0 {
		return 2
	}
	return c.RPCMaxRetries
}

func (c FailureConfig) rpcBackoffBase() time.Duration {
	if c.RPCBackoffBase <= 0 {
		return 2 * time.Millisecond
	}
	return c.RPCBackoffBase
}

func (c FailureConfig) rpcBackoffMax() time.Duration {
	if c.RPCBackoffMax <= 0 {
		return 20 * time.Millisecond
	}
	return c.RPCBackoffMax
}

func (c FailureConfig) breakerThreshold() int {
	if c.BreakerThreshold <= 0 {
		return 5
	}
	return c.BreakerThreshold
}

func (c FailureConfig) breakerCooldown() time.Duration {
	if c.BreakerCooldown <= 0 {
		return 40 * time.Millisecond
	}
	return c.BreakerCooldown
}

// fdKind classifies one detector transition.
type fdKind int

const (
	fdMissed fdKind = iota // a node's heartbeats went stale (counter signal)
	fdSuspect
	fdCleared
	fdDead
)

// fdTransition is one state change surfaced by a detector tick. The
// manager (on its event loop) turns transitions into trace events,
// counters, and — for fdDead — recovery.
type fdTransition struct {
	ID    string
	Kind  fdKind
	Cause string // for fdDead: "heartbeat" or "gray"
}

// fdNode is the detector's per-node state. lastBeat and openFirst are
// written by beat() from collector goroutines; everything is guarded by
// failureDetector.mu.
type fdNode struct {
	lastBeat time.Time
	suspect  bool
	missed   bool // stale-mark already counted for this silence
	// openFirst records, per destination the node's breakers currently
	// report open, when that report first appeared. The gray passes
	// read persistence from these times.
	openFirst map[string]time.Time
}

// failureDetector tracks heartbeat liveness for every container. beat()
// is called from collector goroutines as heartbeat frames arrive;
// register/forget/tick are called from the manager event loop.
type failureDetector struct {
	cfg FailureConfig

	mu    sync.Mutex
	nodes map[string]*fdNode
}

func newFailureDetector(cfg FailureConfig) *failureDetector {
	return &failureDetector{cfg: cfg, nodes: make(map[string]*fdNode)}
}

// register starts tracking a node, with a full grace period before the
// first heartbeat is due.
func (fd *failureDetector) register(id string, now time.Time) {
	fd.mu.Lock()
	fd.nodes[id] = &fdNode{lastBeat: now, openFirst: make(map[string]time.Time)}
	fd.mu.Unlock()
}

// forget stops tracking a node (announced eviction/failure, or the
// detector's own dead declaration was acted on).
func (fd *failureDetector) forget(id string) {
	fd.mu.Lock()
	delete(fd.nodes, id)
	fd.mu.Unlock()
}

// beat records one heartbeat: the node is alive as of now, and its
// breakers are open toward the listed destinations. Unknown senders are
// ignored (a quarantined node's late heartbeats must not resurrect it).
func (fd *failureDetector) beat(id string, open []string, now time.Time) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	n := fd.nodes[id]
	if n == nil {
		return
	}
	n.lastBeat = now
	n.missed = false
	for _, d := range open {
		if _, ok := n.openFirst[d]; !ok {
			n.openFirst[d] = now
		}
	}
	for d := range n.openFirst {
		still := false
		for _, o := range open {
			if o == d {
				still = true
				break
			}
		}
		if !still {
			delete(n.openFirst, d)
		}
	}
}

// tick advances the state machine: staleness transitions per node, then
// the two gray passes over breaker-open reports. live reports whether an
// id is still a current fleet member (dead ids and departed replacements
// never contribute to gray evidence). Transitions are returned in
// deterministic per-category order; dead declarations come last so the
// caller observes suspicions before their resolution.
func (fd *failureDetector) tick(now time.Time, live func(string) bool) []fdTransition {
	fd.mu.Lock()
	defer fd.mu.Unlock()

	var out []fdTransition
	dead := make(map[string]string) // id -> cause

	for _, id := range fd.sortedIDs() {
		n := fd.nodes[id]
		elapsed := now.Sub(n.lastBeat)
		switch {
		case elapsed >= fd.cfg.deadAfter():
			dead[id] = "heartbeat"
		case elapsed >= fd.cfg.suspectAfter():
			if !n.suspect {
				n.suspect = true
				out = append(out, fdTransition{ID: id, Kind: fdSuspect})
			}
		default:
			if n.suspect {
				n.suspect = false
				out = append(out, fdTransition{ID: id, Kind: fdCleared})
			}
		}
		if elapsed >= 2*fd.cfg.heartbeatEvery() && !n.missed {
			n.missed = true
			out = append(out, fdTransition{ID: id, Kind: fdMissed})
		}
	}

	// Gray passes. A reporter with persistent open breakers toward >=
	// grayMinDests live destinations cannot move data — quarantine it.
	// A destination persistently reported open by >= grayMinDests
	// distinct live reporters is refusing data while heartbeating —
	// quarantine it too.
	reportedBy := make(map[string]int)
	for _, id := range fd.sortedIDs() {
		n := fd.nodes[id]
		persistent := 0
		for dest, t0 := range n.openFirst {
			if !live(dest) {
				delete(n.openFirst, dest)
				continue
			}
			if now.Sub(t0) >= fd.cfg.grayAfter() {
				persistent++
				reportedBy[dest]++
			}
		}
		if persistent >= grayMinDests && dead[id] == "" {
			dead[id] = "gray"
		}
	}
	for dest, cnt := range reportedBy {
		if cnt >= grayMinDests && live(dest) && dead[dest] == "" {
			dead[dest] = "gray"
		}
	}

	for _, id := range fd.sortedIDs() {
		if cause, ok := dead[id]; ok {
			out = append(out, fdTransition{ID: id, Kind: fdDead, Cause: cause})
		}
	}
	return out
}

// sortedIDs returns the tracked node ids in deterministic order (caller
// holds fd.mu).
func (fd *failureDetector) sortedIDs() []string {
	ids := make([]string, 0, len(fd.nodes))
	for id := range fd.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
