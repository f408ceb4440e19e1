package runtime

import (
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

// Breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// destState is the per-destination policy state: circuit breaker plus
// retry-token budget. Guarded by dataPlane.mu.
type destState struct {
	state    int
	fails    int // consecutive failures while closed
	openedAt time.Time

	budget     float64
	lastRefill time.Time
}

// dataPlane is one node's outbound side of the data plane: its connection
// pool under the Pado runtime's RPC policy, as one storage.Transport. Every
// executor and the manager send through one. The pool's own reuse-retry
// still applies inside each attempt; the policy only adds more attempts of
// operations that are already retry-safe, so commit-after-all-acks
// exactly-once semantics are preserved:
//
//   - exponential backoff with deterministic jitter between retries,
//     bounded by a per-destination refilling retry budget so a broken
//     peer never absorbs an unbounded retry storm;
//   - a per-destination circuit breaker (closed → open → half-open)
//     that fails operations fast (storage.ErrQuarantined) while open and
//     exposes the open set for gray self-reporting via heartbeats.
//
// A hung peer is not timed out here: heartbeats find it (failure.go).
type dataPlane struct {
	pool *storage.PoolTransport
	met  *metrics.Job
	emit *obs.Buf // breaker transition events (nil = off)

	mu    sync.Mutex
	rng   *rand.Rand
	dests map[string]*destState
}

func newDataPlane(net *simnet.Network, from string, met *metrics.Job, emit *obs.Buf) *dataPlane {
	h := fnv.New64a()
	h.Write([]byte(from))
	return &dataPlane{
		pool:  storage.NewPoolTransport(net, from).Counting(met),
		met:   met,
		emit:  emit,
		rng:   rand.New(rand.NewSource(int64(h.Sum64()))),
		dests: make(map[string]*destState),
	}
}

func (dp *dataPlane) dest(to string) *destState {
	d := dp.dests[to]
	if d == nil {
		d = &destState{budget: rpcRetryBudget, lastRefill: time.Now()}
		dp.dests[to] = d
	}
	return d
}

// admit reports whether an operation toward to may start. An open
// breaker past its cooldown moves to half-open and admits probe traffic;
// within the cooldown everything fails fast.
func (dp *dataPlane) admit(to string) bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	d := dp.dest(to)
	switch d.state {
	case brOpen:
		if time.Since(d.openedAt) < breakerCooldown {
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
func (dp *dataPlane) success(to string) {
	dp.mu.Lock()
	d := dp.dest(to)
	wasOpen := d.state != brClosed
	d.state = brClosed
	d.fails = 0
	dp.mu.Unlock()
	if wasOpen {
		dp.emit.Emit(obs.Event{Kind: obs.BreakerClosed, Exec: to})
	}
}

// failure records a failed attempt; crossing the threshold (or any
// failure while half-open) opens the breaker.
func (dp *dataPlane) failure(to string) {
	dp.mu.Lock()
	d := dp.dest(to)
	d.fails++
	opened := false
	if d.state == brHalfOpen || (d.state == brClosed && d.fails >= breakerThreshold) {
		d.state = brOpen
		d.openedAt = time.Now()
		opened = true
	}
	dp.mu.Unlock()
	if opened {
		dp.met.Counter(metrics.NameBreakerOpens).Add(1)
		dp.emit.Emit(obs.Event{Kind: obs.BreakerOpened, Exec: to})
	}
}

// allowRetry spends one retry token for to, refilling the bucket first.
// No token, no retry: the caller propagates the last error.
func (dp *dataPlane) allowRetry(to string) bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	d := dp.dest(to)
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
func (dp *dataPlane) backoff(n int) time.Duration {
	d := min(rpcBackoffBase<<uint(n), rpcBackoffMax)
	dp.mu.Lock()
	jitter := 0.5 + dp.rng.Float64()
	dp.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// openDests lists destinations whose breakers are open or half-open, in
// sorted order — the gray signal carried by heartbeat payloads.
func (dp *dataPlane) openDests() []string {
	dp.mu.Lock()
	var out []string
	for to, d := range dp.dests {
		if d.state != brClosed {
			out = append(out, to)
		}
	}
	dp.mu.Unlock()
	sort.Strings(out)
	return out
}

// Do implements storage.Transport: one operation toward to under the full
// policy — breaker admission and budgeted backoff retries. A peer reply
// counts as success: the destination is healthy.
func (dp *dataPlane) Do(op, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	if !dp.admit(to) {
		return fmt.Errorf("%s to %s: %w", op, to, storage.ErrQuarantined)
	}
	for attempt := 0; ; attempt++ {
		err := dp.pool.Do(op, to, fn)
		if err == nil || storage.IsReply(err) {
			dp.success(to)
			return err
		}
		dp.failure(to)
		if attempt >= rpcMaxRetries || !dp.allowRetry(to) {
			return err
		}
		if !dp.admit(to) {
			return err
		}
		d := dp.backoff(attempt)
		dp.met.Counter(metrics.NameRPCRetries).Add(1)
		dp.met.Counter(metrics.NameRPCRetryCausePrefix + op).Add(1)
		dp.met.Counter(metrics.NameRPCBackoffNS).Add(int64(d))
		time.Sleep(d)
	}
}
