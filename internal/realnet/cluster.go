package realnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/simnet"
)

// ClusterConfig tunes a live-city cluster.
type ClusterConfig struct {
	// Seed fixes every node's RNG stream and the per-link loss PRNGs,
	// so a replayed schedule draws the same loss pattern run to run.
	Seed int64
	// TimeScale is wall seconds per virtual second (e.g. 0.1 runs a
	// six-minute schedule in 36 s); <= 0 means 1.
	TimeScale float64
	// Serialize installs a shared world lock around every node's event
	// callbacks, letting the harness read protocol state without racing
	// the event loops — the live analogue of the simulator's
	// single-threaded world.
	Serialize bool
}

// Cluster boots a topology of realnet nodes on loopback UDP, wires the
// full peer mesh, and exposes the fabric's fault surface plus an
// injector factory — the process-level harness the live city runs on.
type Cluster struct {
	cfg    ClusterConfig
	world  sync.Mutex
	fabric *Fabric

	mu      sync.Mutex
	nodes   map[simnet.NodeID]*Node
	order   []simnet.NodeID
	started bool
	epoch   time.Time
}

// NewCluster creates an empty cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	c := &Cluster{cfg: cfg, nodes: make(map[simnet.NodeID]*Node)}
	c.fabric = NewFabric(nil)
	return c
}

// AddNode binds a new node on an ephemeral loopback port and registers
// it in the fabric. Call before Start.
func (c *Cluster) AddNode(id simnet.NodeID) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return nil, fmt.Errorf("realnet: cluster already started")
	}
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("realnet: duplicate node %q", id)
	}
	n, err := NewNode(id, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.SetSeed(c.cfg.Seed)
	n.SetTimeScale(c.cfg.TimeScale)
	if c.cfg.Serialize {
		n.SetSerializer(&c.world)
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	c.fabric.Register(n)
	return n, nil
}

// Start wires the full peer mesh, resets every node's clock to a shared
// epoch, and starts the event loops. Protocols must already be
// installed on the nodes.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("realnet: cluster already started")
	}
	for _, a := range c.order {
		for _, b := range c.order {
			if a == b {
				continue
			}
			if err := c.nodes[a].AddPeer(b, c.nodes[b].Addr()); err != nil {
				return err
			}
		}
	}
	c.epoch = time.Now()
	for _, id := range c.order {
		c.nodes[id].resetClock()
		c.nodes[id].Run()
	}
	c.started = true
	return nil
}

// Close shuts every node down.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		nodes = append(nodes, c.nodes[id])
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

// Node returns the node with the given id, or nil.
func (c *Cluster) Node(id simnet.NodeID) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// NodeUp reports whether id exists and is not crashed — the live
// analogue of simnet's NodeUp.
func (c *Cluster) NodeUp(id simnet.NodeID) bool {
	n := c.Node(id)
	return n != nil && !n.Down()
}

// SetDown injects or repairs a crash on id; unknown ids are ignored.
func (c *Cluster) SetDown(id simnet.NodeID, down bool) {
	if n := c.Node(id); n != nil {
		n.SetDown(down)
	}
}

// Fabric exposes the cluster's partition / link-shaping surface.
func (c *Cluster) Fabric() *Fabric { return c.fabric }

// Reachable reports the fabric's partition-level reachability.
func (c *Cluster) Reachable(from, to simnet.NodeID) bool {
	return c.fabric.Reachable(from, to)
}

// WorldLock returns the shared serializer (nil unless Serialize was
// set): hold it to read protocol state owned by node event loops.
func (c *Cluster) WorldLock() *sync.Mutex {
	if !c.cfg.Serialize {
		return nil
	}
	return &c.world
}

// Now returns the cluster's virtual time: wall time since Start divided
// by the time scale (zero before Start).
func (c *Cluster) Now() time.Duration {
	c.mu.Lock()
	epoch := c.epoch
	started := c.started
	c.mu.Unlock()
	if !started {
		return 0
	}
	return time.Duration(float64(time.Since(epoch)) / c.cfg.TimeScale)
}

// Injector builds a fault injector sharing this cluster's fabric,
// schedule offsets scaled by the cluster's time scale, fault
// application serialized with the world lock when one exists.
func (c *Cluster) Injector() *Injector {
	inj := NewFabricInjector(c.fabric, c.cfg.TimeScale)
	if c.cfg.Serialize {
		inj.SetSerializer(&c.world)
	}
	return inj
}

// NetStats aggregates every node's traffic counters.
func (c *Cluster) NetStats() NetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total NetStats
	for _, n := range c.nodes {
		s := n.NetStats()
		total.Sent += s.Sent
		total.SentBytes += s.SentBytes
		total.Received += s.Received
		total.Dropped += s.Dropped
		total.Delayed += s.Delayed
		total.Shaped += s.Shaped
		total.Malformed += s.Malformed
	}
	return total
}

// Size returns the number of nodes in the cluster.
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}
