package runtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// Retry-budget constants: at most rpcRetryBudget retry tokens are banked
// per destination and one token takes rpcBudgetRefill to refill; together
// they stop retry storms against a struggling peer.
const (
	rpcRetryBudget  = 16
	rpcBudgetRefill = 25 * time.Millisecond
)

// Breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// destState is the per-destination policy state: circuit breaker plus
// retry-token budget. Guarded by rpcPolicy.mu.
type destState struct {
	state    int
	fails    int // consecutive failures while closed
	openedAt time.Time

	budget     float64
	lastRefill time.Time
}

// rpcPolicy is the Pado runtime's data-plane RPC policy: a
// storage.Transport that decorates one node's connection pool (the pool's
// own reuse-retry still applies inside each attempt; the policy only adds
// more attempts of operations that are already retry-safe, so
// commit-after-all-acks exactly-once semantics are preserved):
//
//   - a per-operation deadline that closes the attempt's connection so
//     blocked pipe reads/writes unwind (simnet conns have no native
//     deadlines);
//   - exponential backoff with deterministic jitter between retries,
//     bounded by a per-destination refilling retry budget so a broken
//     peer never absorbs an unbounded retry storm;
//   - a per-destination circuit breaker (closed → open → half-open)
//     that fails operations fast (storage.ErrQuarantined) while open and
//     exposes the open set for gray self-reporting via heartbeats.
type rpcPolicy struct {
	pool *storage.PoolTransport
	cfg  FailureConfig
	met  *metrics.Job
	emit *obs.Buf // breaker transition events (nil = off)

	mu    sync.Mutex
	rng   *rand.Rand
	dests map[string]*destState
}

func newRPCPolicy(pool *storage.PoolTransport, cfg FailureConfig, from string, met *metrics.Job, emit *obs.Buf) *rpcPolicy {
	h := fnv.New64a()
	h.Write([]byte(from))
	return &rpcPolicy{
		pool:  pool,
		cfg:   cfg,
		met:   met,
		emit:  emit,
		rng:   rand.New(rand.NewSource(int64(h.Sum64()))),
		dests: make(map[string]*destState),
	}
}

func (pol *rpcPolicy) dest(to string) *destState {
	d := pol.dests[to]
	if d == nil {
		d = &destState{budget: rpcRetryBudget, lastRefill: time.Now()}
		pol.dests[to] = d
	}
	return d
}

// admit reports whether an operation toward to may start. An open
// breaker past its cooldown moves to half-open and admits probe traffic;
// within the cooldown everything fails fast.
func (pol *rpcPolicy) admit(to string) bool {
	pol.mu.Lock()
	defer pol.mu.Unlock()
	d := pol.dest(to)
	switch d.state {
	case brOpen:
		if time.Since(d.openedAt) < pol.cfg.breakerCooldown() {
			return false
		}
		d.state = brHalfOpen
		return true
	default:
		return true
	}
}

// success records a completed operation: the breaker closes (from any
// state) and the consecutive-failure count resets.
func (pol *rpcPolicy) success(to string) {
	pol.mu.Lock()
	d := pol.dest(to)
	wasOpen := d.state != brClosed
	d.state = brClosed
	d.fails = 0
	pol.mu.Unlock()
	if wasOpen {
		pol.emit.Emit(obs.Event{Kind: obs.BreakerClosed, Exec: to})
	}
}

// failure records a failed attempt; crossing the threshold (or any
// failure while half-open) opens the breaker.
func (pol *rpcPolicy) failure(to string) {
	pol.mu.Lock()
	d := pol.dest(to)
	d.fails++
	opened := false
	if d.state == brHalfOpen || (d.state == brClosed && d.fails >= pol.cfg.breakerThreshold()) {
		d.state = brOpen
		d.openedAt = time.Now()
		opened = true
	}
	pol.mu.Unlock()
	if opened {
		pol.met.Counter(metrics.NameBreakerOpens).Add(1)
		pol.emit.Emit(obs.Event{Kind: obs.BreakerOpened, Exec: to})
	}
}

// allowRetry spends one retry token for to, refilling the bucket first.
// No token, no retry: the caller propagates the last error.
func (pol *rpcPolicy) allowRetry(to string) bool {
	pol.mu.Lock()
	defer pol.mu.Unlock()
	d := pol.dest(to)
	now := time.Now()
	d.budget = min(rpcRetryBudget, d.budget+float64(now.Sub(d.lastRefill))/float64(rpcBudgetRefill))
	d.lastRefill = now
	if d.budget < 1 {
		return false
	}
	d.budget--
	return true
}

// backoff returns the jittered exponential delay before retry attempt n
// (0-based): base*2^n, capped, with ±50% deterministic jitter.
func (pol *rpcPolicy) backoff(n int) time.Duration {
	d := pol.cfg.rpcBackoffBase() << uint(n)
	if max := pol.cfg.rpcBackoffMax(); d > max {
		d = max
	}
	pol.mu.Lock()
	jitter := 0.5 + pol.rng.Float64()
	pol.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// openDests lists destinations whose breakers are open or half-open, in
// sorted order — the gray signal carried by heartbeat payloads.
func (pol *rpcPolicy) openDests() []string {
	if pol == nil {
		return nil
	}
	pol.mu.Lock()
	var out []string
	for to, d := range pol.dests {
		if d.state != brClosed {
			out = append(out, to)
		}
	}
	pol.mu.Unlock()
	sort.Strings(out)
	return out
}

// Do implements storage.Transport: one operation toward to under the full
// policy — breaker admission, per-attempt deadline, and budgeted backoff
// retries. A peer reply counts as success: the destination is healthy.
func (pol *rpcPolicy) Do(op, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	if !pol.admit(to) {
		return fmt.Errorf("%s to %s: %w", op, to, storage.ErrQuarantined)
	}
	for attempt := 0; ; attempt++ {
		err := pol.pool.Attempt(to, pol.cfg.RPCDeadline, fn)
		if err == nil || storage.IsReply(err) {
			pol.success(to)
			return err
		}
		if errors.Is(err, storage.ErrDeadline) {
			pol.met.Counter(metrics.NameRPCDeadlineHits).Add(1)
		}
		pol.failure(to)
		if attempt >= pol.cfg.rpcMaxRetries() || !pol.allowRetry(to) {
			return err
		}
		if !pol.admit(to) {
			return err
		}
		d := pol.backoff(attempt)
		pol.met.Counter(metrics.NameRPCRetries).Add(1)
		pol.met.Counter(metrics.NameRPCRetryCausePrefix + op).Add(1)
		pol.met.Counter(metrics.NameRPCBackoffNS).Add(int64(d))
		time.Sleep(d)
	}
}

// dataPlane is one node's outbound side of the data plane: the pool that
// owns its streams, and the Transport every operation goes through — the
// RPC policy around the pool, or the bare pool when the policy is off.
type dataPlane struct {
	storage.Transport
	pool *storage.PoolTransport
	pol  *rpcPolicy // nil = policy off; its read-side methods are nil-safe
}

func newDataPlane(net *simnet.Network, from string, met *metrics.Job, cfg FailureConfig, emit *obs.Buf) *dataPlane {
	pool := storage.NewPoolTransport(net, from).Counting(met)
	if cfg.DisableRPCPolicy {
		return &dataPlane{Transport: pool, pool: pool}
	}
	pol := newRPCPolicy(pool, cfg, from, met, emit)
	return &dataPlane{Transport: pol, pool: pool, pol: pol}
}
