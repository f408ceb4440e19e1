// Package simnet is an in-memory network substrate with per-node bandwidth
// limits and per-link latency.
//
// The Pado paper's evaluation runs on an EC2 cluster where the decisive
// costs are data movement costs: checkpoint traffic funneling through a
// handful of stable-storage nodes, shuffle pulls from many executors, and
// pushes into a small pool of reserved executors. simnet reproduces those
// costs in-process: every node has an egress and an ingress token bucket
// shared by all of its flows, and every byte of every stream is charged
// against both endpoints' buckets. Closing a node (a container eviction)
// breaks all of its streams, mirroring the loss of a machine.
//
// The API is deliberately net-like: nodes Listen and Dial, and Conn is a
// bidirectional byte stream, so higher layers read and write framed
// messages exactly as they would over TCP.
package simnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by network operations.
var (
	ErrNodeDown      = errors.New("simnet: node is down")
	ErrNoSuchNode    = errors.New("simnet: no such node")
	ErrConnClosed    = errors.New("simnet: connection closed")
	ErrNotListening  = errors.New("simnet: node is not listening")
	ErrAlreadyExists = errors.New("simnet: node already exists")
	// ErrInjected is returned by operations killed by an injected fault
	// (internal/chaos). Engines treat it like any other transient network
	// failure: retry or relaunch, never abort.
	ErrInjected = errors.New("simnet: injected fault")
)

// Config holds network-wide defaults.
type Config struct {
	// Latency is the one-way propagation delay applied to every chunk.
	Latency time.Duration
	// DefaultEgress and DefaultIngress are the per-node bandwidth limits
	// in bytes per second applied by AddNode. Zero means unlimited.
	DefaultEgress  int64
	DefaultIngress int64
	// ChunkSize is the granularity at which writes are charged against
	// the token buckets. Defaults to 32KiB.
	ChunkSize int
}

func (c Config) chunkSize() int {
	if c.ChunkSize <= 0 {
		return 32 << 10
	}
	return c.ChunkSize
}

// Network is a collection of nodes that can dial each other.
type Network struct {
	cfg   Config
	mu    sync.Mutex
	nodes map[string]*Node

	// Fault injection (internal/chaos). nFaults is the fast path: with no
	// faults installed, Write and Dial pay one atomic load.
	nFaults atomic.Int32
	fmu     sync.Mutex
	faults  []*faultRule
}

// New creates an empty network.
func New(cfg Config) *Network {
	return &Network{cfg: cfg, nodes: make(map[string]*Node)}
}

// LinkFault describes one scripted network fault. From and To select
// links by node-id prefix ("" matches every node), so a single rule can
// degrade a whole class of links (e.g. everything from transient nodes
// "t" into reserved nodes "r").
type LinkFault struct {
	// From and To are node-id prefixes selecting the affected links.
	From, To string
	// ExceptFrom and ExceptTo, when non-empty, exempt links whose source
	// (resp. destination) id has the given prefix even if From/To match.
	// Gray-failure rules use them to break a node's data plane while
	// sparing its control-plane link to the master.
	ExceptFrom, ExceptTo string
	// ExtraLatency is added to the delivery deadline of every matching
	// chunk (link delay / throttle injection).
	ExtraLatency time.Duration
	// DropEvery, when > 0, fails every DropEvery-th matching chunk write
	// with ErrInjected (1 = every write). The counter is per-rule, so a
	// fixed schedule of writes sees a deterministic failure pattern.
	DropEvery int
	// FailDial fails matching Dial calls with ErrInjected.
	FailDial bool
}

// faultRule is an installed LinkFault plus its private write counter.
type faultRule struct {
	f      LinkFault
	writes int64 // guarded by Network.fmu
}

func (r *faultRule) matches(from, to string) bool {
	if !strings.HasPrefix(from, r.f.From) || !strings.HasPrefix(to, r.f.To) {
		return false
	}
	if r.f.ExceptFrom != "" && strings.HasPrefix(from, r.f.ExceptFrom) {
		return false
	}
	if r.f.ExceptTo != "" && strings.HasPrefix(to, r.f.ExceptTo) {
		return false
	}
	return true
}

// InjectFault installs f and returns a function removing it. Removal is
// idempotent. Installed faults affect in-flight connections immediately
// (they are consulted per chunk, not per stream).
func (n *Network) InjectFault(f LinkFault) (remove func()) {
	r := &faultRule{f: f}
	n.fmu.Lock()
	n.faults = append(n.faults, r)
	n.fmu.Unlock()
	n.nFaults.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			n.fmu.Lock()
			for i, q := range n.faults {
				if q == r {
					n.faults = append(n.faults[:i], n.faults[i+1:]...)
					break
				}
			}
			n.fmu.Unlock()
			n.nFaults.Add(-1)
		})
	}
}

// writeFault consults the installed faults for one chunk on from->to,
// returning extra delivery latency and/or an injection error.
func (n *Network) writeFault(from, to string) (time.Duration, error) {
	if n.nFaults.Load() == 0 {
		return 0, nil
	}
	n.fmu.Lock()
	defer n.fmu.Unlock()
	var extra time.Duration
	var err error
	for _, r := range n.faults {
		if !r.matches(from, to) {
			continue
		}
		extra += r.f.ExtraLatency
		if r.f.DropEvery > 0 {
			r.writes++
			if r.writes%int64(r.f.DropEvery) == 0 && err == nil {
				err = fmt.Errorf("%w: drop on link %s->%s", ErrInjected, from, to)
			}
		}
	}
	return extra, err
}

// dialFault reports whether an installed fault kills a dial from->to.
func (n *Network) dialFault(from, to string) error {
	if n.nFaults.Load() == 0 {
		return nil
	}
	n.fmu.Lock()
	defer n.fmu.Unlock()
	for _, r := range n.faults {
		if r.f.FailDial && r.matches(from, to) {
			return fmt.Errorf("%w: dial %s->%s", ErrInjected, from, to)
		}
	}
	return nil
}

// AddNode adds a node with the network's default bandwidth limits.
func (n *Network) AddNode(id string) (*Node, error) {
	return n.AddNodeBW(id, n.cfg.DefaultEgress, n.cfg.DefaultIngress)
}

// AddNodeBW adds a node with explicit egress/ingress limits in bytes per
// second (0 = unlimited).
func (n *Network) AddNodeBW(id string, egress, ingress int64) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyExists, id)
	}
	nd := &Node{
		id:      id,
		net:     n,
		egress:  NewLimiter(egress, 0),
		ingress: NewLimiter(ingress, 0),
		down:    make(chan struct{}),
		conns:   make(map[*Conn]struct{}),
	}
	n.nodes[id] = nd
	return nd, nil
}

// Node returns the node with the given id, or nil if absent or removed.
func (n *Network) Node(id string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[id]
}

// RemoveNode closes the node and removes it from the network.
func (n *Network) RemoveNode(id string) {
	n.mu.Lock()
	nd := n.nodes[id]
	delete(n.nodes, id)
	n.mu.Unlock()
	if nd != nil {
		nd.Close()
	}
}

// SetWedged marks (or unmarks) a node as hung: writes touching the node
// block — with the connection held open — until the node is un-wedged,
// closed, or removed. Unlike Close, peers get no error and no EOF; they
// just stop hearing from the node, which is exactly the gray behavior a
// failure detector must catch. Returns false if the node does not exist.
func (n *Network) SetWedged(id string, wedged bool) bool {
	n.mu.Lock()
	nd := n.nodes[id]
	n.mu.Unlock()
	if nd == nil {
		return false
	}
	nd.wedged.Store(wedged)
	return true
}

// Dial opens a stream from node `from` to node `to`. The remote endpoint
// is delivered to to's Listener; Dial fails if to is not listening.
func (n *Network) Dial(from, to string) (*Conn, error) {
	n.mu.Lock()
	src := n.nodes[from]
	dst := n.nodes[to]
	n.mu.Unlock()
	if src == nil {
		return nil, fmt.Errorf("dial from %q: %w", from, ErrNoSuchNode)
	}
	if dst == nil {
		return nil, fmt.Errorf("dial to %q: %w", to, ErrNoSuchNode)
	}
	if err := n.dialFault(from, to); err != nil {
		return nil, err
	}
	return src.dial(dst)
}

// Node is a network endpoint with its own bandwidth budget.
type Node struct {
	id  string
	net *Network

	egress  *Limiter
	ingress *Limiter

	mu       sync.Mutex
	down     chan struct{}
	closed   bool
	listener *Listener
	conns    map[*Conn]struct{}

	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	// wedged simulates a hung process: the node stops moving bytes on
	// all of its streams — without closing them or going down — so peers
	// observe silence, not errors. See Network.SetWedged.
	wedged atomic.Bool
}

// ID returns the node's identifier.
func (nd *Node) ID() string { return nd.id }

// BytesSent reports the total payload bytes written by this node.
func (nd *Node) BytesSent() int64 { return nd.bytesSent.Load() }

// BytesRecv reports the total payload bytes received by this node.
func (nd *Node) BytesRecv() int64 { return nd.bytesRecv.Load() }

// Down returns a channel closed when the node goes down.
func (nd *Node) Down() <-chan struct{} { return nd.down }

// Closed reports whether the node has been closed.
func (nd *Node) Closed() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.closed
}

// Listen starts accepting inbound connections on the node. Only one
// listener per node is supported; calling Listen again returns the same
// listener.
func (nd *Node) Listen() (*Listener, error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed {
		return nil, ErrNodeDown
	}
	if nd.listener == nil {
		nd.listener = &Listener{node: nd, ch: make(chan *Conn, 64)}
	}
	return nd.listener, nil
}

// Close takes the node down: all its connections fail, its listener stops
// accepting, and pending bandwidth waiters are released. Close is
// idempotent.
func (nd *Node) Close() {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return
	}
	nd.closed = true
	close(nd.down)
	conns := make([]*Conn, 0, len(nd.conns))
	for c := range nd.conns {
		conns = append(conns, c)
	}
	nd.conns = make(map[*Conn]struct{})
	nd.mu.Unlock()

	nd.egress.Close()
	nd.ingress.Close()
	for _, c := range conns {
		c.closeWithError(ErrNodeDown)
	}
}

func (nd *Node) dial(dst *Node) (*Conn, error) {
	dst.mu.Lock()
	l := dst.listener
	dstClosed := dst.closed
	dst.mu.Unlock()
	if dstClosed {
		return nil, fmt.Errorf("dial to %q: %w", dst.id, ErrNodeDown)
	}
	if l == nil {
		return nil, fmt.Errorf("dial to %q: %w", dst.id, ErrNotListening)
	}

	ab := newPipe() // src -> dst
	ba := newPipe() // dst -> src
	local := &Conn{local: nd, remote: dst, rd: ba, wr: ab, net: nd.net}
	remote := &Conn{local: dst, remote: nd, rd: ab, wr: ba, net: nd.net}
	local.peer, remote.peer = remote, local

	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil, fmt.Errorf("dial from %q: %w", nd.id, ErrNodeDown)
	}
	nd.conns[local] = struct{}{}
	nd.mu.Unlock()

	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		nd.dropConn(local)
		local.closeWithError(ErrNodeDown)
		return nil, fmt.Errorf("dial to %q: %w", dst.id, ErrNodeDown)
	}
	dst.conns[remote] = struct{}{}
	dst.mu.Unlock()

	select {
	case l.ch <- remote:
	case <-dst.down:
		nd.dropConn(local)
		local.closeWithError(ErrNodeDown)
		return nil, fmt.Errorf("dial to %q: %w", dst.id, ErrNodeDown)
	}
	return local, nil
}

func (nd *Node) dropConn(c *Conn) {
	nd.mu.Lock()
	delete(nd.conns, c)
	nd.mu.Unlock()
}

// Listener accepts inbound connections for a node.
type Listener struct {
	node *Node
	ch   chan *Conn
}

// Accept blocks until a connection arrives, the node goes down, or cancel
// is closed.
func (l *Listener) Accept(cancel <-chan struct{}) (*Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.node.down:
		// Drain any connection racing with shutdown.
		select {
		case c := <-l.ch:
			return c, nil
		default:
		}
		return nil, ErrNodeDown
	case <-cancel:
		return nil, ErrConnClosed
	}
}

// Conn is one endpoint of a bidirectional stream between two nodes.
type Conn struct {
	local  *Node
	remote *Node
	peer   *Conn
	net    *Network
	rd     *pipe // data flowing toward this endpoint
	wr     *pipe // data flowing away from this endpoint

	closeOnce sync.Once
}

// LocalID and RemoteID identify the endpoints.
func (c *Conn) LocalID() string  { return c.local.id }
func (c *Conn) RemoteID() string { return c.remote.id }

// Write sends b to the remote endpoint, charging the local egress and
// remote ingress token buckets chunk by chunk. It blocks while bandwidth
// is unavailable and fails if either node goes down or the stream closes.
func (c *Conn) Write(b []byte) (int, error) {
	chunk := c.net.cfg.chunkSize()
	latency := c.net.cfg.Latency
	written := 0
	for len(b) > 0 {
		if err := c.waitWedged(); err != nil {
			return written, err
		}
		n := len(b)
		if n > chunk {
			n = chunk
		}
		extra, ferr := c.net.writeFault(c.local.id, c.remote.id)
		if ferr != nil {
			return written, ferr
		}
		if err := c.local.egress.Acquire(n, c.local.down); err != nil {
			return written, c.writeErr(err)
		}
		if err := c.remote.ingress.Acquire(n, c.remote.down); err != nil {
			return written, c.writeErr(err)
		}
		data, buf := newChunk(n)
		copy(data, b[:n])
		if err := c.wr.push(data, buf, time.Now().Add(latency+extra)); err != nil {
			return written, err
		}
		c.local.bytesSent.Add(int64(n))
		c.remote.bytesRecv.Add(int64(n))
		written += n
		b = b[n:]
	}
	return written, nil
}

// waitWedged blocks while either endpoint is wedged (a simulated hang).
// It returns nil once both endpoints are responsive again, and an error
// if either node goes down or the stream breaks while waiting — so a
// wedged node's eventual eviction still unblocks stuck writers.
func (c *Conn) waitWedged() error {
	for c.local.wedged.Load() || c.remote.wedged.Load() {
		select {
		case <-c.local.down:
			return ErrNodeDown
		case <-c.remote.down:
			return ErrNodeDown
		case <-time.After(time.Millisecond):
			if c.wr.broken() {
				return ErrConnClosed
			}
		}
	}
	return nil
}

func (c *Conn) writeErr(err error) error {
	if errors.Is(err, ErrLimiterClosed) {
		return ErrNodeDown
	}
	return err
}

// Read reads available bytes, honoring the per-chunk delivery latency.
func (c *Conn) Read(b []byte) (int, error) {
	return c.rd.read(b)
}

// Alive reports whether the stream is still usable: both endpoints are up
// and neither direction has been closed or broken. A true result is
// advisory — the peer can go down between the check and the next use — so
// callers must still handle write/read errors; connection pools use it to
// cheaply discard conns whose peer was already evicted or restarted.
func (c *Conn) Alive() bool {
	if c.local.Closed() || c.remote.Closed() {
		return false
	}
	return !c.rd.broken() && !c.wr.broken()
}

// Close shuts down both directions of the stream. The remote side sees EOF
// on reads of data written before Close and ErrConnClosed afterwards.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeSend()
		c.rd.closeWithError(ErrConnClosed)
		c.local.dropConn(c)
		c.remote.dropConn(c.peer)
	})
	return nil
}

// CloseWrite half-closes the stream: the remote reader drains buffered
// data and then sees EOF, while this endpoint can continue reading.
func (c *Conn) CloseWrite() error {
	c.wr.closeSend()
	return nil
}

func (c *Conn) closeWithError(err error) {
	c.wr.closeWithError(err)
	c.rd.closeWithError(err)
}
