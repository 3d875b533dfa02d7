package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
	// MaxInFlight / MaxBatch configure each node's server.
	MaxInFlight int
	MaxBatch    int
	// Registries, when non-nil, must have one registry per node; nil
	// gives each server a private registry.
	Registries []*obs.Registry
}

// ClusterNode is one member of a local serving cluster.
type ClusterNode struct {
	ID      simnet.NodeID
	Node    *realnet.Node
	Members *gossip.Protocol
	Store   *dataflow.Store
	Server  *Server
	URL     string

	ln  net.Listener
	sub *obs.Subscription
}

// Cluster is a set of loopback realnet nodes, each running gossip
// membership, a governed store synchronized all-to-all, and a serve
// front door — the in-process shape of the CI smoke's three riotnode
// processes. Used by the riotbench `serve` experiment and the e2e
// tests.
type Cluster struct {
	Nodes []*ClusterNode
}

var wireOnce sync.Once

// registerWire makes the cluster's protocol messages encodable by
// realnet exactly once per process (idempotent with riotnode's own
// calls).
func registerWire() {
	wireOnce.Do(func() {
		gossip.RegisterWire(realnet.RegisterWireType)
		dataflow.RegisterWire(realnet.RegisterWireType)
		simnet.RegisterMuxWire(realnet.RegisterWireType)
	})
}

// StartCluster boots n nodes on ephemeral loopback ports (UDP for the
// protocols, TCP for the serve API), joins them through node 0, and
// returns once every server is accepting. Callers own Close.
func StartCluster(n int, opts ClusterOptions) (*Cluster, error) {
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
	registerWire()

	c := &Cluster{}
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
	for i := 0; i < n; i++ {
		node, err := realnet.NewNode(ids[i], "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, &ClusterNode{ID: ids[i], Node: node})
	}
	for _, cn := range c.Nodes {
		for _, other := range c.Nodes {
			if other.ID == cn.ID {
				continue
			}
			if err := cn.Node.AddPeer(other.ID, other.Node.Addr()); err != nil {
				return nil, err
			}
		}
	}

	for i, cn := range c.Nodes {
		world := space.NewMap()
		world.AddDomain(space.Domain{ID: "site", Trusted: true})
		var peers []simnet.NodeID
		for _, other := range c.Nodes {
			world.Place(string(other.ID), space.Point{}, "site")
			if other.ID != cn.ID {
				peers = append(peers, other.ID)
			}
		}
		mux := simnet.NewPortMux(cn.Node)
		cn.Members = gossip.New(mux.Port("gossip"), gossip.Config{
			ProbeInterval:    opts.ProbeInterval,
			ProbeTimeout:     opts.ProbeInterval / 2,
			SuspicionTimeout: 4 * opts.ProbeInterval,
		})
		bus := obs.NewBus(cn.Node.Now)
		cn.Members.SetBus(bus)
		// Node 0 bootstraps the cluster and is ready at once; the rest
		// are ready after their first acked probe proves two-way contact.
		var joined atomic.Bool
		joined.Store(i == 0)
		cn.sub = bus.SubscribeFunc(func(ev obs.Event) {
			if ev.Kind == "gossip.probe" {
				joined.Store(true)
			}
		})
		cn.Store = dataflow.NewStore(mux.Port("store"), world, dataflow.StoreConfig{
			Peers: peers, SyncInterval: opts.SyncInterval,
		})
		var reg *obs.Registry
		if opts.Registries != nil {
			reg = opts.Registries[i]
		}
		cn.Server = NewServer(Config{
			Loop:        cn.Node,
			Store:       cn.Store,
			Members:     cn.Members,
			Registry:    reg,
			Ready:       joined.Load,
			Now:         cn.Node.Now,
			MaxInFlight: opts.MaxInFlight,
			MaxBatch:    opts.MaxBatch,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cn.ln = ln
		cn.URL = "http://" + ln.Addr().String()
	}

	for i, cn := range c.Nodes {
		cn := cn
		var seeds []simnet.NodeID
		if i > 0 {
			seeds = []simnet.NodeID{ids[0]}
		}
		cn.Node.Run()
		cn.Node.Do(func() {
			cn.Members.Start(seeds...)
			cn.Store.Start()
		})
		go func() { _ = cn.Server.Serve(cn.ln) }()
	}
	ok = true
	return c, nil
}

// URLs returns each node's serve base URL, in node order.
func (c *Cluster) URLs() []string {
	urls := make([]string, len(c.Nodes))
	for i, cn := range c.Nodes {
		urls[i] = cn.URL
	}
	return urls
}

// Close drains every server (bounded) and stops every node. Safe on a
// partially-started cluster.
func (c *Cluster) Close() {
	for _, cn := range c.Nodes {
		if cn.Server != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			_ = cn.Server.Shutdown(ctx)
			cancel()
		} else if cn.ln != nil {
			_ = cn.ln.Close()
		}
		if cn.sub != nil {
			cn.sub.Close()
		}
	}
	for _, cn := range c.Nodes {
		if cn.Node != nil {
			cn.Node.Close()
		}
	}
}
