package storage

import (
	"errors"
	"fmt"
	"sync"

	"pado/internal/data"
	"pado/internal/simnet"
)

// Service is a non-replicated stable-storage cluster (the GlusterFS/HDFS
// substitute of §5.1.2). Each participating node runs a server loop;
// blocks are assigned to nodes by key hash, so N storage nodes share the
// load — and bound the aggregate bandwidth, which is precisely the
// bottleneck the paper attributes to checkpoint-based recovery.
type Service struct {
	nodes  []*simnet.Node
	stores []*LocalStore
	disks  []*simnet.Limiter // nil entries = unlimited disk

	mu      sync.Mutex
	started bool
}

// NewService creates a service over the given nodes (typically the
// reserved nodes of the cluster).
func NewService(nodes []*simnet.Node) *Service {
	return NewServiceDisk(nodes, 0)
}

// NewServiceDisk creates a service whose nodes are additionally limited
// by per-node disk bandwidth (bytes/second; 0 = unlimited). Unlike the
// engines' in-memory local stores, a distributed filesystem writes and
// reads its blocks through disk, which is part of why the paper's
// checkpoint baseline pays so dearly at the storage nodes (§5.2.1).
func NewServiceDisk(nodes []*simnet.Node, diskBW int64) *Service {
	stores := make([]*LocalStore, len(nodes))
	disks := make([]*simnet.Limiter, len(nodes))
	for i := range stores {
		stores[i] = NewLocalStore()
		if diskBW > 0 {
			disks[i] = simnet.NewLimiter(diskBW, 0)
		}
	}
	return &Service{nodes: nodes, stores: stores, disks: disks}
}

// NodeIDs returns the storage node ids in service order.
func (s *Service) NodeIDs() []string {
	ids := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		ids[i] = n.ID()
	}
	return ids
}

// UsedBytes reports the total bytes stored across all storage nodes.
func (s *Service) UsedBytes() int64 {
	var sum int64
	for _, st := range s.stores {
		sum += st.UsedBytes()
	}
	return sum
}

// Start launches the server loop on every storage node.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("storage: service already started")
	}
	s.started = true
	for i, n := range s.nodes {
		l, err := n.Listen()
		if err != nil {
			return fmt.Errorf("storage: node %s: %w", n.ID(), err)
		}
		go ServeBlocks(l, s.stores[i], s.disks[i], nil, nil)
	}
	return nil
}

// Client accesses the stable storage service from one cluster node
// through a Transport. A client is safe for concurrent use.
type Client struct {
	t     Transport
	nodes []string
}

// NewClientTransport returns a client issuing its operations through t.
func NewClientTransport(t Transport, svc *Service) *Client {
	return &Client{t: t, nodes: svc.NodeIDs()}
}

func (c *Client) nodeFor(key string) string {
	return c.nodes[int(data.HashKey(key)%uint64(len(c.nodes)))]
}

// Put stores a block on the storage node responsible for key.
func (c *Client) Put(key string, payload []byte) error {
	return StoreBlock(c.t, "ckput", c.nodeFor(key), key, payload)
}

// Get fetches a block. Missing blocks return ErrNotFound.
func (c *Client) Get(key string) ([]byte, error) {
	return FetchBlock(c.t, "ckget", c.nodeFor(key), key)
}
