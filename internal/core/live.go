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
	scale := lc.TimeScale
	if scale <= 0 {
		scale = 1
	}
	cluster := realnet.NewCluster(realnet.ClusterConfig{
		Seed:      cfg.Seed,
		TimeScale: scale,
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
	return newSystem(cfg, arch, nil, liveWorld{cluster, scale}), nil
}

// LiveInfo summarizes the non-Report side of a live run: the injector's
// armed and skipped counts, the aggregate socket traffic, what the
// cluster's loop did (busy time, timer lateness), and the wall time the
// run took.
type LiveInfo struct {
	Armed        int
	Skipped      int
	Net          realnet.NetStats
	Loop         realnet.LoopStats
	WallDuration time.Duration
}

// RunLive executes a live system to its horizon on the wall clock and
// returns the measured report. The driver replaces the simulator's
// scheduler: environment and measurement ticks fire from a wall-clock
// ticker under the cluster's world lock (the live analogue of the
// simulator's single-threaded event loop), with virtual-time
// watermarks so a late tick catches up rather than skipping samples.
func (sys *System) RunLive() (Report, LiveInfo, error) {
	lb, ok := sys.world.(liveWorld)
	if !ok {
		return Report{}, LiveInfo{}, fmt.Errorf("core: RunLive on a simulated system; use Run")
	}
	wallStart := time.Now()
	if err := lb.Start(); err != nil {
		lb.Close()
		return Report{}, LiveInfo{}, err
	}
	defer lb.Close()

	lock := lb.WorldLock()
	step := sys.cfg.EnvStep
	inv := sys.cfg.ControlInterval
	nextEnv, nextInv := step, inv
	// Tick at half an (scaled) EnvStep so each virtual step is seen
	// close to its due time; the watermark loops absorb scheduling
	// jitter by running every step the wall clock has passed.
	wallTick := time.Duration(float64(step) * lb.scale / 2)
	if wallTick < time.Millisecond {
		wallTick = time.Millisecond
	}
	ticker := time.NewTicker(wallTick)
	defer ticker.Stop()
	for {
		<-ticker.C
		now := lb.Now()
		lock.Lock()
		for nextEnv <= now && nextEnv <= sys.cfg.Duration {
			sys.envTickBody(step)
			if nextEnv >= sys.warmup {
				sys.measure()
			}
			nextEnv += step
		}
		for nextInv <= now && nextInv <= sys.cfg.Duration {
			if nextInv >= sys.warmup {
				sys.sampleInvocations()
			}
			nextInv += inv
		}
		lock.Unlock()
		if now >= sys.cfg.Duration {
			break
		}
	}

	lock.Lock()
	if st := sys.SyncTraffic(); st.FramesSent > 0 || st.FramesIn > 0 {
		sys.record(EventSync, "frames=%d entries=%d bytes=%d acks=%d",
			st.FramesSent, st.EntriesSent, st.BytesSent, st.AcksIn)
	}
	r := sys.report()
	lock.Unlock()
	info := LiveInfo{
		Armed:        sys.injector.Armed(),
		Skipped:      sys.injector.Skipped(),
		Net:          lb.NetStats(),
		Loop:         lb.LoopStats(),
		WallDuration: time.Since(wallStart),
	}
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

// liveWorld is a loopback UDP cluster; scale is its wall seconds per
// virtual second.
type liveWorld struct {
	*realnet.Cluster
	scale float64
}

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
