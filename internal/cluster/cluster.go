// Package cluster simulates the datacenter environment of the paper's
// evaluation (§5.1.1): a resource manager that hands out reserved and
// transient containers, and an eviction driver that ends each transient
// container after a lifetime drawn from a trace-derived distribution,
// immediately replacing it with a fresh container — exactly the protocol
// the paper uses on its EC2 testbed.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pado/internal/core"
	"pado/internal/simnet"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// Kind classifies containers.
type Kind int

// Container kinds.
const (
	Reserved Kind = iota
	Transient
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Reserved {
		return "reserved"
	}
	return "transient"
}

// Container is a slice of one node's resources running one executor. In
// this simulation each container gets its own simnet node, mirroring the
// paper's one-instance-per-container setup.
type Container struct {
	ID   string
	Kind Kind
	Node *simnet.Node
	// Slots is the number of concurrent task slots of the executor.
	Slots int
	// CPU, when non-nil, is the executor's shared compute-capacity
	// limiter in records per second.
	CPU *simnet.Limiter
}

// Listener receives container lifecycle callbacks. Callbacks are invoked
// from the cluster's goroutines and must not block for long.
type Listener interface {
	// ContainerLaunched fires for initial allocations and replacements.
	ContainerLaunched(c *Container)
	// ContainerEvicted fires when a transient container is evicted; the
	// container's node is already down.
	ContainerEvicted(c *Container)
	// ContainerFailed fires when a reserved container suffers a machine
	// fault (test injection only; never spontaneous).
	ContainerFailed(c *Container)
}

// Config sizes and parameterizes the cluster.
type Config struct {
	Transient int
	Reserved  int
	// Slots per executor (default 4, matching the 4-vcore instances).
	Slots int
	// CPURecordsPerSec models each executor's compute capacity as a
	// record-processing rate shared by its task slots (0 = unlimited).
	// On a single-core host real CPU cannot model a 45-node cluster;
	// this limiter restores the per-node compute budget that makes the
	// few reserved containers a compute bottleneck for reduce-heavy
	// jobs (§5.3).
	CPURecordsPerSec int64

	// Bandwidths in bytes/second (0 = unlimited). The defaults model
	// the paper's instances: reserved i2.xlarge nodes get the higher
	// budget, transient m3.xlarge nodes the lower one.
	TransientBW int64
	ReservedBW  int64
	MasterBW    int64
	Latency     time.Duration

	// Lifetimes drives transient-container evictions; nil disables
	// evictions (the "none" eviction rate).
	Lifetimes *trace.LifetimeDist
	// Scale maps the lifetime distribution's paper-minutes onto wall
	// time.
	Scale vtime.Scale
	// MinLifetime floors sampled wall lifetimes to keep extremely short
	// samples schedulable (default 20ms).
	MinLifetime time.Duration
	Seed        int64
}

func (c Config) slots() int {
	if c.Slots <= 0 {
		return 4
	}
	return c.Slots
}

// PlacementEnv is the capacity description a job is compiled against:
// the cell's reserved slot total, which the job manager's admission
// control arbitrates.
func (c Config) PlacementEnv() core.PolicyEnv {
	return core.PolicyEnv{ReservedSlotBudget: c.Reserved * c.slots()}
}

func (c Config) minLifetime() time.Duration {
	if c.MinLifetime <= 0 {
		return 20 * time.Millisecond
	}
	return c.MinLifetime
}

// Cluster owns the network and the containers of one experiment.
type Cluster struct {
	cfg Config
	net *simnet.Network

	mu         sync.Mutex
	rng        *rand.Rand
	listener   Listener
	containers map[string]*Container
	next       int
	started    bool
	closed     bool
	masterNode *simnet.Node
	stopCh     chan struct{}
	wg         sync.WaitGroup
	evictions  int64
}

// New builds a cluster and its network. The master gets a dedicated
// reserved node named "master" (the paper runs the engines' master on an
// additional reserved container).
func New(cfg Config) (*Cluster, error) {
	if cfg.Transient < 0 || cfg.Reserved <= 0 {
		return nil, errors.New("cluster: need at least one reserved container")
	}
	if cfg.Scale.WallPerMinute <= 0 {
		cfg.Scale = vtime.DefaultScale()
	}
	net := simnet.New(simnet.Config{Latency: cfg.Latency})
	mn, err := net.AddNodeBW("master", cfg.MasterBW, cfg.MasterBW)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		cfg:        cfg,
		net:        net,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		containers: make(map[string]*Container),
		masterNode: mn,
		stopCh:     make(chan struct{}),
	}, nil
}

// Net returns the cluster's network.
func (cl *Cluster) Net() *simnet.Network { return cl.net }

// TransientConfigured returns the configured number of transient
// containers (engines fall back to reserved executors for transient-side
// tasks only when the cluster was configured without any).
func (cl *Cluster) TransientConfigured() int { return cl.cfg.Transient }

// MasterNode returns the dedicated master node.
func (cl *Cluster) MasterNode() *simnet.Node { return cl.masterNode }

// Scale returns the paper-time scale in effect.
func (cl *Cluster) Scale() vtime.Scale { return cl.cfg.Scale }

// Evictions returns the number of evictions injected so far.
func (cl *Cluster) Evictions() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.evictions
}

// Start allocates the initial containers and begins the eviction driver.
// The listener receives a ContainerLaunched callback per container.
func (cl *Cluster) Start(l Listener) error {
	cl.mu.Lock()
	if cl.started {
		cl.mu.Unlock()
		return errors.New("cluster: already started")
	}
	cl.started = true
	cl.listener = l
	cl.mu.Unlock()

	for i := 0; i < cl.cfg.Reserved; i++ {
		if _, err := cl.allocate(Reserved); err != nil {
			return err
		}
	}
	for i := 0; i < cl.cfg.Transient; i++ {
		if _, err := cl.allocate(Transient); err != nil {
			return err
		}
	}
	return nil
}

// allocate creates a container, notifies the listener, and arms the
// eviction timer for transient containers.
func (cl *Cluster) allocate(kind Kind) (*Container, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, errors.New("cluster: closed")
	}
	cl.next++
	var id string
	var bw int64
	if kind == Reserved {
		id = fmt.Sprintf("r%d", cl.next)
		bw = cl.cfg.ReservedBW
	} else {
		id = fmt.Sprintf("t%d", cl.next)
		bw = cl.cfg.TransientBW
	}
	node, err := cl.net.AddNodeBW(id, bw, bw)
	if err != nil {
		cl.mu.Unlock()
		return nil, err
	}
	c := &Container{ID: id, Kind: kind, Node: node, Slots: cl.cfg.slots()}
	if cl.cfg.CPURecordsPerSec > 0 {
		c.CPU = simnet.NewLimiter(cl.cfg.CPURecordsPerSec, cl.cfg.CPURecordsPerSec/4)
	}
	cl.containers[id] = c
	listener := cl.listener
	var lifetime time.Duration
	armed := false
	if kind == Transient && cl.cfg.Lifetimes != nil && !cl.cfg.Lifetimes.Empty() {
		mins := cl.cfg.Lifetimes.Sample(cl.rng)
		lifetime = cl.cfg.Scale.Wall(mins)
		if lifetime < cl.cfg.minLifetime() {
			lifetime = cl.cfg.minLifetime()
		}
		armed = true
	}
	cl.mu.Unlock()

	if listener != nil {
		listener.ContainerLaunched(c)
	}
	if armed {
		cl.wg.Add(1)
		go cl.evictionTimer(c, lifetime)
	}
	return c, nil
}

func (cl *Cluster) evictionTimer(c *Container, lifetime time.Duration) {
	defer cl.wg.Done()
	t := time.NewTimer(lifetime)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cl.stopCh:
		return
	}
	cl.evict(c, true)
}

// evict takes a transient container down and, if replace is true,
// immediately allocates a replacement (§5.1.1).
func (cl *Cluster) evict(c *Container, replace bool) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	if _, ok := cl.containers[c.ID]; !ok {
		cl.mu.Unlock()
		return
	}
	delete(cl.containers, c.ID)
	cl.evictions++
	listener := cl.listener
	cl.mu.Unlock()

	cl.net.RemoveNode(c.ID)
	if listener != nil {
		listener.ContainerEvicted(c)
	}
	if replace {
		_, _ = cl.allocate(Transient)
	}
}

// EvictNow forces an eviction of the named transient container (test
// injection). The replacement container is still allocated.
func (cl *Cluster) EvictNow(id string) error {
	cl.mu.Lock()
	c, ok := cl.containers[id]
	cl.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no container %q", id)
	}
	if c.Kind != Transient {
		return fmt.Errorf("cluster: container %q is reserved; use FailReserved", id)
	}
	cl.evict(c, true)
	return nil
}

// KillSilently takes the named container down WITHOUT notifying the
// listener — the failure-detector test injection: the node disappears
// from the network (streams break, dials fail) but no ContainerEvicted
// or ContainerFailed callback fires, so only heartbeat staleness can
// reveal the loss. A replacement of the same kind is still allocated
// when replace is true, matching the resource manager's behavior of
// backfilling capacity it reclaimed. Idempotent on already-gone ids.
func (cl *Cluster) KillSilently(id string, replace bool) error {
	cl.Quarantine(id, replace)
	return nil
}

// Quarantine removes the named container from the cluster without any
// listener callback — the master calls it when its failure detector
// declares a node dead, so the node cannot rejoin and later frames from
// it hit a removed simnet node; chaos uses it (via KillSilently) as the
// announcement-free kill injection. A same-kind replacement is allocated
// when replace is true. Idempotent: quarantining an already-gone
// container is a no-op. Returns the container's kind and whether it was
// present.
func (cl *Cluster) Quarantine(id string, replace bool) (Kind, bool) {
	cl.mu.Lock()
	c, ok := cl.containers[id]
	if !ok {
		cl.mu.Unlock()
		return 0, false
	}
	delete(cl.containers, id)
	if c.Kind == Transient {
		cl.evictions++
	}
	cl.mu.Unlock()

	cl.net.RemoveNode(id)
	if replace {
		_, _ = cl.allocate(c.Kind)
	}
	return c.Kind, true
}

// FailReserved injects a machine fault on a reserved container (§3.2.6).
// No replacement is allocated automatically; the caller decides.
func (cl *Cluster) FailReserved(id string, replace bool) error {
	cl.mu.Lock()
	c, ok := cl.containers[id]
	if !ok || c.Kind != Reserved {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: no reserved container %q", id)
	}
	delete(cl.containers, id)
	listener := cl.listener
	cl.mu.Unlock()

	cl.net.RemoveNode(id)
	if listener != nil {
		listener.ContainerFailed(c)
	}
	if replace {
		_, err := cl.allocate(Reserved)
		return err
	}
	return nil
}

// Containers returns a snapshot of live containers of the given kind.
func (cl *Cluster) Containers(kind Kind) []*Container {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []*Container
	for _, c := range cl.containers {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// Stop shuts the cluster down: eviction timers stop and every node goes
// down. Safe to call more than once.
func (cl *Cluster) Stop() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	close(cl.stopCh)
	conts := make([]*Container, 0, len(cl.containers))
	for _, c := range cl.containers {
		conts = append(conts, c)
	}
	cl.containers = make(map[string]*Container)
	cl.mu.Unlock()

	for _, c := range conts {
		cl.net.RemoveNode(c.ID)
	}
	cl.net.RemoveNode("master")
	cl.wg.Wait()
}
