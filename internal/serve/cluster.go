package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/realnet"
	"repro/internal/simnet"
	"repro/internal/space"
)

// ClusterOptions tunes StartCluster. Zero values pick fast loopback
// defaults suited to tests and benches.
type ClusterOptions struct {
	// ProbeInterval is the gossip probe period (default 200ms; timeout
	// and suspicion scale off it).
	ProbeInterval time.Duration
	// SyncInterval is the store anti-entropy period (default 250ms).
	SyncInterval time.Duration
	// Registries, when non-nil, must have one registry per node; nil
	// gives each server a private registry.
	Registries []*obs.Registry
}

// ClusterNode is one assembled edge node: a realnet socket carrying
// gossip membership and a governed store, fronted by a Server. URL is
// set for members of a Cluster.
type ClusterNode struct {
	ID      simnet.NodeID
	Node    *realnet.Node
	Members *gossip.Protocol
	Store   *dataflow.Store
	Server  *Server
	URL     string

	seeds []simnet.NodeID
}

// Cluster is a set of loopback edge nodes, each running gossip
// membership, a governed store synchronized all-to-all, and a serve
// front door — the in-process shape of the CI smoke's three riotnode
// processes. Its sockets are a realnet.Cluster (Net), one loop per
// node, so it is a fault.World: a fault.Injector on Net partitions,
// crashes and shapes the serving path. Used by the bench/ serve
// workloads and the e2e tests.
type Cluster struct {
	Nodes []*ClusterNode
	Net   *realnet.Cluster
}

var wireOnce sync.Once

// site is the one trusted domain an edge node and its peers sit in, and
// the origin its API writes are stamped with.
const site space.DomainID = "site"

// registerWire makes the edge stack's protocol messages encodable by
// realnet exactly once per process.
func registerWire() {
	wireOnce.Do(func() {
		gossip.RegisterWire(realnet.RegisterWireType)
		dataflow.RegisterWire(realnet.RegisterWireType)
		simnet.RegisterMuxWire(realnet.RegisterWireType)
	})
}

// StartNode assembles the edge stack on a bound node whose peers are
// registered, runs the node and starts the stack's protocols — the one
// way riotnode puts a live edge node together; StartCluster makes the
// same two steps around its cluster's Start.
func StartNode(node *realnet.Node, peers, seeds []simnet.NodeID, reg *obs.Registry, opts ClusterOptions) *ClusterNode {
	cn := assembleNode(node, peers, seeds, reg, opts)
	node.Run()
	cn.start()
	return cn
}

// assembleNode builds the edge stack on node before its loop runs, so
// the server's store and membership callbacks are registered
// race-free. Gossip and the store share the socket through the
// protocol mux, exactly as the ML4 edge stack does in simulation; the
// node and its peers sit in one trusted site domain; gossip's timeouts
// derive from opts.ProbeInterval and the store syncs every
// opts.SyncInterval, and membership anti-entropy runs every ten probe
// intervals, the simulator's ML4 ratio. The node is ready once gossip
// has joined (Protocol.Joined): for a node with seeds, when the first
// peer answers it — normally the seed's join ack, one round trip after
// start — which is confirmed two-way contact, not the optimistic alive
// that Start assumes for its seeds; a seedless node bootstraps its own
// cluster and is ready at once. reg, when non-nil, also counts the
// node's bus events; nil gives the server a private registry. Callers
// serve the server on a listener of their own.
func assembleNode(node *realnet.Node, peers, seeds []simnet.NodeID, reg *obs.Registry, opts ClusterOptions) *ClusterNode {
	registerWire()
	cn := &ClusterNode{ID: node.ID(), Node: node, seeds: seeds}
	world := space.NewMap()
	world.AddDomain(space.Domain{ID: site, Trusted: true})
	world.Place(string(cn.ID), space.Point{}, site)
	for _, p := range peers {
		world.Place(string(p), space.Point{}, site)
	}
	mux := simnet.NewPortMux(node)
	cn.Members = gossip.New(mux.Port("gossip"), gossip.Config{
		ProbeInterval:    opts.ProbeInterval,
		ProbeTimeout:     opts.ProbeInterval / 2,
		SuspicionTimeout: 4 * opts.ProbeInterval,
	})
	if reg != nil {
		bus := obs.NewBus(node.Now)
		cn.Members.SetBus(bus)
		reg.WatchBus(bus)
	}
	cn.Store = dataflow.NewStore(mux.Port("store"), world, dataflow.StoreConfig{
		Peers: peers, SyncInterval: opts.SyncInterval,
	})
	cn.Server = NewServer(Config{
		Loop:     node,
		Store:    cn.Store,
		Members:  cn.Members,
		Registry: reg,
		Ready:    cn.Ready,
		Now:      node.Now,
	})
	return cn
}

// start starts membership, joining through the node's seeds, and the
// store on the node's running loop.
func (cn *ClusterNode) start() {
	cn.Node.Do(func() {
		cn.Members.Start(cn.seeds...)
		cn.Store.Start()
	})
}

// Ready reports whether the node has joined its cluster. Safe to call
// from any goroutine.
func (cn *ClusterNode) Ready() bool { return cn.Members.Joined() }

// Close drains the server (bounded) and stops the node.
func (cn *ClusterNode) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	_ = cn.Server.Shutdown(ctx)
	cancel()
	cn.Node.Close()
}

// StartCluster boots n nodes on ephemeral loopback ports (UDP for the
// protocols, TCP for the serve API), joins them through node 0, and
// returns once every server is accepting. Callers own Close.
func StartCluster(n int, opts ClusterOptions) (*Cluster, error) {
	c, err := newCluster(n, opts)
	if err != nil {
		return nil, err
	}
	if err := c.start(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// newCluster binds n nodes, assembles the edge stack on each with node
// 0 as every other node's seed, and runs their sockets; no protocol
// has started and no server is listening until start.
func newCluster(n int, opts ClusterOptions) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: cluster size %d", n)
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 200 * time.Millisecond
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 250 * time.Millisecond
	}
	if opts.Registries != nil && len(opts.Registries) != n {
		return nil, fmt.Errorf("serve: %d registries for %d nodes", len(opts.Registries), n)
	}

	c := &Cluster{Net: realnet.NewCluster(realnet.ClusterConfig{})}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("n%d", i))
	}
	for i, id := range ids {
		node, err := c.Net.AddNode(id)
		if err != nil {
			return nil, err
		}
		peers := append(append([]simnet.NodeID(nil), ids[:i]...), ids[i+1:]...)
		var seeds []simnet.NodeID
		if i > 0 {
			seeds = ids[:1]
		}
		var reg *obs.Registry
		if opts.Registries != nil {
			reg = opts.Registries[i]
		}
		c.Nodes = append(c.Nodes, assembleNode(node, peers, seeds, reg, opts))
	}
	if err := c.Net.Start(); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// start starts every node's protocols, in node order, and serves each
// node on an ephemeral loopback listener.
func (c *Cluster) start() error {
	for _, cn := range c.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		cn.URL = "http://" + ln.Addr().String()
		cn.start()
		go func() { _ = cn.Server.Serve(ln) }()
	}
	return nil
}

// Close drains every server (bounded) and stops every node.
func (c *Cluster) Close() {
	for _, cn := range c.Nodes {
		cn.Close()
	}
	c.Net.Close()
}
