package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/mape"
	"repro/internal/pubsub"
	"repro/internal/realnet"
	"repro/internal/simnet"
)

// LiveConfig tunes a live (real-socket) run.
type LiveConfig struct {
	// TimeScale compresses virtual time onto the wall clock: wall =
	// virtual × TimeScale. 0.1 runs a 6-minute scenario in ~36 s of
	// wall time while every protocol interval and shaper latency
	// scales with it. Zero means 1 (real time).
	TimeScale float64
}

// NewLiveSystem builds the scenario on real UDP sockets: the same
// topology, protocols and wiring as NewSystem, but every node is a
// realnet process-local UDP endpoint on loopback and faults land on
// wall clocks. The returned system must be run with RunLive.
func NewLiveSystem(cfg ScenarioConfig, arch Archetype, lc LiveConfig) (sys *System, err error) {
	cfg = cfg.withDefaults()
	if cfg.Shards > 0 {
		return nil, fmt.Errorf("core: live runs do not support sharding (Shards=%d)", cfg.Shards)
	}
	registerLiveWire()
	cluster := realnet.NewCluster(realnet.ClusterConfig{
		Seed:      cfg.Seed,
		TimeScale: lc.TimeScale,
		Serialize: true,
	})
	defer func() {
		// buildWorld panics on a failed socket bind; convert to an
		// error and release whatever part of the cluster came up.
		if r := recover(); r != nil {
			cluster.Close()
			sys, err = nil, fmt.Errorf("core: live boot failed: %v", r)
		}
	}()
	return newSystem(cfg, arch, nil, liveWorld{cluster}), nil
}

// LiveInfo summarizes the non-Report side of a live run: the injector's
// armed and skipped counts, the aggregate socket traffic once the
// datagrams in flight at the horizon have drained, what the cluster's
// loop did up to the horizon (busy time, timer lateness), and the wall
// time the run took to its horizon.
type LiveInfo struct {
	Armed        int
	Skipped      int
	Net          realnet.NetStats
	Loop         realnet.LoopStats
	WallDuration time.Duration
}

// RunLive executes a live system to its horizon on the wall clock and
// returns the measured report. The cluster's loop replaces the
// simulator's scheduler: the samplers are the same At chains Run arms,
// each step at its own virtual instant beside the fault schedule and
// every node's callbacks, so a step the loop runs late still runs, and
// the report is taken on the loop after the last step at or before the
// horizon. Closing the cluster then drains it, so the traffic counts
// include what was still in flight at the horizon.
func (sys *System) RunLive() (Report, LiveInfo, error) {
	lb, ok := sys.world.(liveWorld)
	if !ok {
		return Report{}, LiveInfo{}, fmt.Errorf("core: RunLive on a simulated system; use Run")
	}
	wallStart := time.Now()
	sys.startSamplers()
	var r Report
	done := make(chan struct{})
	end := sys.cfg.Duration
	lb.At(end, func() {
		// The samplers' steps at end were armed after this callback;
		// queue once more at end to run behind all of them.
		lb.At(end, func() {
			r = sys.finish()
			close(done)
		})
	})
	if err := lb.Start(); err != nil {
		lb.Close()
		return Report{}, LiveInfo{}, err
	}
	<-done
	info := LiveInfo{
		Armed:        sys.injector.Armed(),
		Skipped:      sys.injector.Skipped(),
		Loop:         lb.LoopStats(),
		WallDuration: time.Since(wallStart),
	}
	lb.Close()
	info.Net = lb.NetStats()
	return r, info, nil
}

// ---- backend seam ----------------------------------------------------

// world is the backend a System is built on and measured through: the
// fault surface its injector drives, plus node registration and the
// queries measurement and control make. The simulator and the live
// cluster differ only in how a node is added and how traffic is
// counted, which is all the two adapters below contain.
type world interface {
	fault.World
	AddNode(id simnet.NodeID) simnet.Port
	NodeUp(id simnet.NodeID) bool
	Reachable(from, to simnet.NodeID) bool
	// Traffic totals delivered messages and bytes on the wire.
	Traffic() (msgs, bytes int)
}

type simWorld struct{ *simnet.Sim }

func (w simWorld) AddNode(id simnet.NodeID) simnet.Port { return w.Sim.AddNode(id) }

func (w simWorld) Traffic() (msgs, bytes int) {
	st := w.Stats()
	return st.Delivered, st.Bytes
}

// liveWorld is a loopback UDP cluster.
type liveWorld struct{ *realnet.Cluster }

// AddNode panics on a failed socket bind; NewLiveSystem recovers it.
func (w liveWorld) AddNode(id simnet.NodeID) simnet.Port {
	n, err := w.Cluster.AddNode(id)
	if err != nil {
		panic(err)
	}
	return n
}

func (w liveWorld) Traffic() (msgs, bytes int) {
	st := w.NetStats()
	return int(st.Received), int(st.SentBytes)
}

// shardCount reports the sharded scheduler's lane count; live runs and
// unsharded simulation report zero.
func (sys *System) shardCount() int {
	if sys.sim != nil {
		return sys.sim.ShardCount()
	}
	return 0
}

// setShard assigns a node to a scheduler lane; a no-op on live runs.
func (sys *System) setShard(id simnet.NodeID, shard int) {
	if sys.sim != nil {
		sys.sim.SetShard(id, shard)
	}
}

// RegisterWire registers every message type the archetypes put on the
// wire — the protocol packages' and core's own — with a wire codec.
func RegisterWire(register func(any)) {
	simnet.RegisterMuxWire(register)
	gossip.RegisterWire(register)
	dataflow.RegisterWire(register)
	consensus.RegisterWire(register)
	mape.RegisterWire(register)
	pubsub.RegisterWire(register)
	register(readingMsg{})
	register(actuateMsg{})
	register(placementCmd{})
}

// liveWireOnce makes the registration with realnet's codec happen once
// per process; it is shared by all live systems.
var liveWireOnce sync.Once

func registerLiveWire() {
	liveWireOnce.Do(func() { RegisterWire(realnet.RegisterWireType) })
}
