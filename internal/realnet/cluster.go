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
	// Serialize runs every node's callbacks and timers on the
	// cluster's loop, beside its At callbacks, so that one goroutine
	// owns all protocol state and the At callbacks read it without
	// racing them — the live analogue of the simulator's
	// single-threaded world; on Linux that loop also reads the nodes'
	// sockets itself. Without it each node runs its own loop.
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
	cfg  ClusterConfig
	loop *loop // runs At callbacks and, under Serialize, every node

	mu      sync.Mutex
	nodes   map[simnet.NodeID]*Node
	order   []simnet.NodeID
	group   map[simnet.NodeID]string
	started bool
	closed  bool
}

// NewCluster creates an empty cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	var p poller
	if cfg.Serialize {
		p = newPoller() // the reactor, on Linux
	} else {
		p = newChanPoller()
	}
	return &Cluster{
		cfg:   cfg,
		loop:  newLoop(sharedLoopDepth, p),
		nodes: make(map[simnet.NodeID]*Node),
		group: make(map[simnet.NodeID]string),
	}
}

// sharedLoopDepth is the event queue of a cluster's loop. A reactor's
// holds Do callbacks alone; off Linux, a Serialize cluster's readers
// block on it, and their sockets' kernel buffers take the rest of a
// burst.
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
	var shared *loop
	if c.cfg.Serialize {
		shared = c.loop
	}
	n, err := newNode(id, "127.0.0.1:0", simnet.SubSeed(c.cfg.Seed, "node/"+string(id)), c.cfg.Seed, c.cfg.TimeScale, shared)
	if err != nil {
		return nil, err
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return n, nil
}

// Start wires the full peer mesh and starts the nodes and the
// cluster's loop with every loop clock based at one epoch, so the
// nodes' Now, their timers and every At call made so far count from
// the same instant. Protocols must already be installed on the nodes.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("realnet: cluster already started")
	}
	// One address and one sender-table entry per node, shared by the
	// whole mesh: nothing is resolved or allocated per ordered pair.
	addrs := make([]*peer, len(c.order))
	known := make(map[string]simnet.NodeID, len(c.order))
	for i, id := range c.order {
		addrs[i] = newPeer(c.nodes[id].sock.localAddr())
		known[string(id)] = id
	}
	for i, a := range c.order {
		n := c.nodes[a]
		n.mu.Lock()
		if len(n.peers) == 0 {
			n.peers = make(map[simnet.NodeID]*peer, len(c.order)-1)
		}
		for j, b := range c.order {
			if i != j {
				n.peers[b] = addrs[j]
			}
		}
		n.known = known
		n.mu.Unlock()
	}
	epoch := time.Now()
	for _, id := range c.order {
		c.nodes[id].run(epoch)
	}
	c.loop.start(epoch)
	c.started = true
	return nil
}

// Close stops the cluster's loop, cancelling every At callback, timer
// and delayed datagram still pending, and shuts every node down.
// Callbacks that already ran stay applied. Under Serialize it drains
// in between: arrivals are dispatched until the sockets have been quiet
// for 5 ms (1 s at most), so NetStats read after Close counts what was
// in flight at the last callback as received or dropped.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nodes := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		nodes = append(nodes, c.nodes[id])
	}
	c.mu.Unlock()
	c.loop.stop()
	if c.cfg.Serialize {
		c.loop.drain()
	}
	for _, n := range nodes {
		n.Close()
	}
	c.loop.release()
}

// LoopStats reports what the cluster's loop has done: under Serialize
// everything its nodes ran, otherwise its At callbacks alone.
func (c *Cluster) LoopStats() LoopStats { return c.loop.snapshot() }

// Now returns the cluster's virtual time: its loop clock, wall time
// since Start, divided by the time scale (zero before Start).
func (c *Cluster) Now() time.Duration {
	return time.Duration(float64(c.loop.now()) / c.cfg.TimeScale)
}

// At runs fn on the cluster's loop at virtual time t (at once if t has
// passed; once the clock starts if it has not yet). On top of what
// Sim.At does it scales t onto the wall clock and lets Close cancel fn.
// Its due time is t's own instant on the loop clock, so callbacks at one
// instant run in the order they were armed, as on the simulator.
func (c *Cluster) At(t time.Duration, fn func()) {
	c.loop.at(&timerEntry{idx: -1, fn: fn}, int64(float64(t)*c.cfg.TimeScale))
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
