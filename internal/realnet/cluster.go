package realnet

import (
	"fmt"
	"net"
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
	// Serialize runs every node's callbacks and timers on one shared
	// loop under the world lock, letting the harness read protocol state
	// without racing them — the live analogue of the simulator's
	// single-threaded world.
	Serialize bool
}

// Cluster boots a topology of realnet nodes on loopback UDP, wires the
// full peer mesh, and is the live fault.World: the same clock-and-fault
// surface simnet.Sim offers, with the simulator's exact semantics.
// Partition REPLACES any previous grouping (nodes absent from every
// group form an implicit extra group, unreachable from all named ones),
// HealPartition clears all groups at once, and link shapes override a
// link independently of partitions — so overlapping partitions collapse
// under a single heal and crashes compose freely with both.
//
// The fault methods are safe to call from any goroutine; they only flip
// per-node drop/shape state, never touch protocol state.
type Cluster struct {
	cfg   ClusterConfig
	world sync.Mutex
	loop  *loop // shared by every node under Serialize; nil otherwise

	mu      sync.Mutex
	nodes   map[simnet.NodeID]*Node
	order   []simnet.NodeID
	group   map[simnet.NodeID]string
	started bool
	closed  bool
	epoch   time.Time
	pending []func()      // At calls made before Start
	timers  []*time.Timer // At calls not yet cancelled by Close
}

// NewCluster creates an empty cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: make(map[simnet.NodeID]*Node),
		group: make(map[simnet.NodeID]string),
	}
	if cfg.Serialize {
		c.loop = newLoop(&c.world, sharedLoopDepth)
	}
	return c
}

// sharedLoopDepth is the event queue of a serialized cluster's one loop:
// its nodes' readers block on it, and their sockets' kernel buffers take
// the rest of a burst.
const sharedLoopDepth = 4096

// AddNode binds a new node on an ephemeral loopback port. Call before
// Start.
func (c *Cluster) AddNode(id simnet.NodeID) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return nil, fmt.Errorf("realnet: cluster already started")
	}
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("realnet: duplicate node %q", id)
	}
	// Seeded once, deterministically: the node's stream from the
	// cluster seed and its ID, and the per-link loss streams from the
	// cluster seed, so a replayed schedule draws the same loss pattern
	// on every run.
	n, err := newNode(id, "127.0.0.1:0", subSeed(c.cfg.Seed, "node/"+string(id)), c.cfg.Seed, c.loop)
	if err != nil {
		return nil, err
	}
	n.SetTimeScale(c.cfg.TimeScale)
	c.nodes[id] = n
	c.order = append(c.order, id)
	return n, nil
}

// Start wires the full peer mesh, resets every node's clock to a shared
// epoch, starts the nodes and the shared loop and puts the At calls made
// so far on that clock. Protocols must already be installed on the nodes.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("realnet: cluster already started")
	}
	// One address and one sender-table entry per node, shared by the
	// whole mesh: nothing is resolved or allocated per ordered pair.
	addrs := make([]*net.UDPAddr, len(c.order))
	known := make(map[string]simnet.NodeID, len(c.order))
	for i, id := range c.order {
		addrs[i] = c.nodes[id].conn.LocalAddr().(*net.UDPAddr)
		known[string(id)] = id
	}
	for i, a := range c.order {
		n := c.nodes[a]
		n.mu.Lock()
		if len(n.peers) == 0 {
			n.peers = make(map[simnet.NodeID]*net.UDPAddr, len(c.order)-1)
		}
		for j, b := range c.order {
			if i != j {
				n.peers[b] = addrs[j]
			}
		}
		n.known = known
		n.mu.Unlock()
	}
	c.epoch = time.Now()
	for _, id := range c.order {
		c.nodes[id].resetClock()
		c.nodes[id].Run()
	}
	if c.loop != nil {
		c.loop.start()
	}
	c.started = true
	for _, arm := range c.pending {
		arm()
	}
	c.pending = nil
	return nil
}

// Close cancels every At callback still pending, shuts every node down
// and then stops the shared loop. Callbacks that already ran stay
// applied.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, t := range c.timers {
		t.Stop()
	}
	c.timers, c.pending = nil, nil
	nodes := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		nodes = append(nodes, c.nodes[id])
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
	if c.loop != nil {
		c.loop.stop()
	}
}

// LoopStats reports what the shared loop of a serialized cluster has
// done; it is zero without Serialize.
func (c *Cluster) LoopStats() LoopStats {
	if c.loop == nil {
		return LoopStats{}
	}
	return c.loop.snapshot()
}

// WorldLock returns the lock every At callback runs under — and, with
// Serialize, every node callback and timer too: hold it to read state
// those callbacks own. Never call a node's Do while holding it; that
// deadlocks.
func (c *Cluster) WorldLock() *sync.Mutex { return &c.world }

// Now returns the cluster's virtual time: wall time since Start divided
// by the time scale (zero before Start).
func (c *Cluster) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return 0
	}
	return time.Duration(float64(time.Since(c.epoch)) / c.cfg.TimeScale)
}

// At runs fn at virtual time t on the cluster's clock (at once if t has
// passed; once the clock starts if it has not yet). On top of what
// Sim.At does it scales t onto the wall clock, holds the world lock
// around fn so that fn is serialized with every other callback as the
// simulator's single thread serializes them, and remembers the timer so
// Close can cancel it.
func (c *Cluster) At(t time.Duration, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	arm := func() {
		delay := time.Duration(float64(t)*c.cfg.TimeScale) - time.Since(c.epoch)
		c.timers = append(c.timers, time.AfterFunc(delay, func() {
			c.world.Lock()
			defer c.world.Unlock()
			fn()
		}))
	}
	if !c.started {
		c.pending = append(c.pending, arm)
		return
	}
	arm()
}

// node returns the node with the given id, or nil.
func (c *Cluster) node(id simnet.NodeID) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// HasNode reports whether id was added to the cluster.
func (c *Cluster) HasNode(id simnet.NodeID) bool { return c.node(id) != nil }

// NodeUp reports whether id exists and is not crashed.
func (c *Cluster) NodeUp(id simnet.NodeID) bool {
	n := c.node(id)
	return n != nil && !n.Down()
}

// SetDown injects or repairs a crash on id; unknown ids are ignored.
func (c *Cluster) SetDown(id simnet.NodeID, down bool) {
	if n := c.node(id); n != nil {
		n.SetDown(down)
	}
}

// Partition splits the network into the given groups, replacing any
// previous partition. Nodes listed in no group land in an implicit
// group of their own ("" — simnet's zero group), mutually reachable
// but cut off from every named group.
func (c *Cluster) Partition(groups ...[]simnet.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = make(map[simnet.NodeID]string)
	for i, g := range groups {
		name := fmt.Sprintf("g%d", i)
		for _, id := range g {
			c.group[id] = name
		}
	}
	c.pushBlockedLocked()
}

// HealPartition removes every partition at once, whatever sequence of
// Partition calls produced the current state.
func (c *Cluster) HealPartition() { c.Partition() }

// Reachable reports whether the current partition state lets from talk
// to to — the live analogue of simnet's group check (link loss, even
// total, does not affect reachability, matching the simulator).
func (c *Cluster) Reachable(from, to simnet.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.group) == 0 {
		return true
	}
	return c.group[from] == c.group[to]
}

// pushBlockedLocked recomputes every node's blocked-peer set from the
// group map and installs it. Caller holds c.mu.
func (c *Cluster) pushBlockedLocked() {
	partitioned := len(c.group) > 0
	for id, n := range c.nodes {
		blocked := make(map[simnet.NodeID]bool)
		if partitioned {
			g := c.group[id]
			for peer := range c.nodes {
				if peer != id && c.group[peer] != g {
					blocked[peer] = true
				}
			}
		}
		n.SetBlocked(blocked)
	}
}

// DegradeLink raises latency/loss on both directions of a↔b, mirroring
// Sim.DegradeLink. Unknown endpoints are ignored, as the simulator
// harmlessly records overrides for ids it never routes.
func (c *Cluster) DegradeLink(a, b simnet.NodeID, latency time.Duration, loss float64) {
	if n := c.node(a); n != nil {
		n.ShapeLink(b, latency, loss)
	}
	if n := c.node(b); n != nil {
		n.ShapeLink(a, latency, loss)
	}
}

// RestoreLink clears both directions of a↔b back to native latency and
// zero loss. Restoring a link that was never degraded is a no-op.
func (c *Cluster) RestoreLink(a, b simnet.NodeID) {
	if n := c.node(a); n != nil {
		n.ClearShapedLink(b)
	}
	if n := c.node(b); n != nil {
		n.ClearShapedLink(a)
	}
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
