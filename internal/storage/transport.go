package storage

import (
	"errors"
	"io"
	"sync"

	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/simnet"
)

// Transport carries one framed request/response round to a destination
// node. PoolTransport is the implementation every engine runs on; the
// Pado runtime decorates it with its RPC policy (budgeted retries,
// circuit breakers), the Spark-like baseline uses it bare.
type Transport interface {
	// Do runs fn as one request/response round against node `to`. op is
	// a short label ("fetch", "ckput", "casget", ...) a decorator may use
	// to account retries by cause.
	Do(op, to string, fn func(e *data.Encoder, d *data.Decoder) error) error
}

// ErrQuarantined is returned by a Transport that refuses a destination
// without trying it (the runtime's open circuit breaker). Callers treat
// it like any transport failure: retry elsewhere or relaunch.
var ErrQuarantined = errors.New("storage: destination quarantined by circuit breaker")

// reply marks an error as a negative answer the peer sent on an aligned
// stream, as opposed to a failure of the stream itself.
type reply struct{ error }

func (r reply) Unwrap() error { return r.error }
func (reply) peerReply()      {}

// Reply marks err as a negative answer from a healthy peer (a rejected
// push, say): the stream that carried it is still aligned and stays
// pooled, and retrying would only repeat the answer. The mark travels
// with the error through %w wrapping, and Call puts it on every refusal,
// so no op marks its own and no caller keeps a list.
func Reply(err error) error { return reply{err} }

// IsReply reports whether err carries the Reply mark. ErrNotFound does:
// misses are routine answers during commit-store probing and races with
// recovery, and must not cost a stream or trip a breaker.
func IsReply(err error) bool {
	var r interface{ peerReply() }
	return errors.As(err, &r)
}

// IsTransient is the data plane's one classification of retryable
// failures: everything an eviction, a node failure or a race with
// recovery can make a block operation return. Anything else — user
// function errors, coder mismatches — is a job bug. io.EOF and
// io.ErrUnexpectedEOF are in the set because a peer that dies mid-reply
// closes the stream under the reader. Peer replies are in it because a
// healthy peer answers no only when the asker raced a restart.
func IsTransient(err error) bool {
	if IsReply(err) {
		return true
	}
	for _, t := range transportErrs {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

var transportErrs = []error{simnet.ErrNodeDown, simnet.ErrNoSuchNode, simnet.ErrConnClosed,
	simnet.ErrNotListening, simnet.ErrLimiterClosed, simnet.ErrInjected,
	io.EOF, io.ErrUnexpectedEOF, ErrQuarantined}

// PoolTransport reuses simnet streams across the operations one node
// issues. The receive side (Serve) loops over framed operations on a
// single stream, so the send side keeps streams per destination open and
// multiplexes sequential request/response rounds over them.
//
// A stream is dropped whenever an operation fails with anything but a
// peer reply, or its peer is observed down (Conn.Alive), so an eviction
// at worst costs the in-flight operation — exactly as per-operation
// dialing would. The dials/reuses counter pair makes reuse observable.
type PoolTransport struct {
	net    *simnet.Network
	from   string
	dials  *metrics.Counter
	reuses *metrics.Counter

	mu     sync.Mutex
	idle   map[string][]*stream
	closed bool
}

// stream is one pooled connection with its codec state. The Encoder and
// Decoder must live as long as the conn: both buffer, so rebuilding them
// per operation could strand bytes of an earlier response.
type stream struct {
	c *simnet.Conn
	e *data.Encoder
	d *data.Decoder
}

// maxIdlePerDest bounds the idle list per destination. Concurrent fan-out
// from one node rarely needs more parallel streams per peer than
// MaxFetchWorkers; excess streams returned beyond the cap are closed.
const maxIdlePerDest = 8

// NewPoolTransport returns a pooled Transport issuing operations from the
// named node.
func NewPoolTransport(net *simnet.Network, from string) *PoolTransport {
	return &PoolTransport{net: net, from: from, idle: make(map[string][]*stream),
		dials: new(metrics.Counter), reuses: new(metrics.Counter)}
}

// Counting makes the pool count its dials and reuses in met's conn_dials
// and conn_reuses instead of privately. Call it before the pool is shared.
func (p *PoolTransport) Counting(met *metrics.Job) *PoolTransport {
	p.dials = met.Counter(metrics.NameConnDials)
	p.reuses = met.Counter(metrics.NameConnReuses)
	return p
}

// checkout returns a stream to dest — an idle one when a live candidate
// exists, a fresh dial otherwise — and whether it was reused.
func (p *PoolTransport) checkout(to string) (*stream, bool, error) {
	p.mu.Lock()
	for {
		list := p.idle[to]
		if len(list) == 0 {
			break
		}
		s := list[len(list)-1]
		p.idle[to] = list[:len(list)-1]
		if !s.c.Alive() {
			s.c.Close()
			continue
		}
		p.mu.Unlock()
		p.reuses.Add(1)
		return s, true, nil
	}
	p.mu.Unlock()
	s, err := p.dial(to)
	return s, false, err
}

// dial opens a fresh stream to dest, bypassing the idle list.
func (p *PoolTransport) dial(to string) (*stream, error) {
	conn, err := p.net.Dial(p.from, to)
	if err != nil {
		return nil, err
	}
	p.dials.Add(1)
	return &stream{c: conn, e: data.NewEncoder(conn), d: data.NewDecoder(conn)}, nil
}

// checkin returns a healthy stream to the idle list; dead streams and
// overflow beyond maxIdlePerDest are closed instead.
func (p *PoolTransport) checkin(s *stream) {
	if !s.c.Alive() {
		s.c.Close()
		return
	}
	to := s.c.RemoteID()
	p.mu.Lock()
	if p.closed || len(p.idle[to]) >= maxIdlePerDest {
		p.mu.Unlock()
		s.c.Close()
		return
	}
	p.idle[to] = append(p.idle[to], s)
	p.mu.Unlock()
}

// Close drains and closes every idle stream and marks the pool closed:
// late operations still work (they dial fresh) but their streams are
// closed instead of pooled.
func (p *PoolTransport) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]*stream)
	p.closed = true
	p.mu.Unlock()
	for _, list := range idle {
		for _, s := range list {
			s.c.Close()
		}
	}
}

// Do implements Transport as one pool-level attempt: an operation that
// fails with a transport error on a REUSED stream is retried exactly once
// on a freshly dialed one — the pooled stream's peer may have gone down
// and been replaced while it sat idle, which per-operation dialing never
// observed. Failures on fresh streams propagate unchanged. The extra
// attempt is safe because every operation on the data plane is: fetches
// and stores are idempotent, pushes are deduplicated by receivers, result
// frames by the master's task state.
func (p *PoolTransport) Do(_, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	s, reused, err := p.checkout(to)
	if err != nil {
		return err
	}
	for {
		err = fn(s.e, s.d)
		if err == nil || IsReply(err) {
			p.checkin(s)
			return err
		}
		s.c.Close()
		if !reused {
			return err
		}
		reused = false
		if s, err = p.dial(to); err != nil {
			return err
		}
	}
}
