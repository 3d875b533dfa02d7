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

// liveBackend carries the realnet state behind a live System: the
// loopback UDP cluster hosting every node, and — once RunLive arms the
// schedule — the wall-clock fault injector.
type liveBackend struct {
	cluster *realnet.Cluster
	inj     *realnet.Injector
	scale   float64
}

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
	sys = newSystem(cfg, arch, &liveBackend{cluster: cluster, scale: scale})
	return sys, nil
}

// LiveInfo summarizes the non-Report side of a live run: how much of
// the fault schedule armed, the aggregate socket traffic, and the wall
// time the run took.
type LiveInfo struct {
	Armed        int
	Skipped      int
	Net          realnet.NetStats
	WallDuration time.Duration
}

// RunLive executes a live system to its horizon on the wall clock and
// returns the measured report. The driver replaces the simulator's
// scheduler: environment and measurement ticks fire from a wall-clock
// ticker under the cluster's world lock (the live analogue of the
// simulator's single-threaded event loop), with virtual-time
// watermarks so a late tick catches up rather than skipping samples.
func (sys *System) RunLive() (Report, LiveInfo, error) {
	lb := sys.live
	if lb == nil {
		return Report{}, LiveInfo{}, fmt.Errorf("core: RunLive on a simulated system; use Run")
	}
	wallStart := time.Now()
	if err := lb.cluster.Start(); err != nil {
		lb.cluster.Close()
		return Report{}, LiveInfo{}, err
	}
	defer lb.cluster.Close()

	inj := lb.cluster.Injector()
	lb.inj = inj
	defer inj.Stop()
	sys.attachFaultSubscribers(inj)
	armed, skipped := inj.Arm(buildFaults(sys.cfg))

	lock := lb.cluster.WorldLock()
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
		now := lb.cluster.Now()
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
		Armed:        armed,
		Skipped:      skipped,
		Net:          lb.cluster.NetStats(),
		WallDuration: time.Since(wallStart),
	}
	return r, info, nil
}

// ---- backend seam ----------------------------------------------------
//
// Every run-time query the measurement and control code makes goes
// through these wrappers, so the same code drives the simulator and
// the live cluster.

// now reads the current virtual time from whichever backend is active.
func (sys *System) now() time.Duration {
	if sys.live != nil {
		return sys.live.cluster.Now()
	}
	return sys.sim.Now()
}

// nodeUp reports whether a node exists and is not crashed.
func (sys *System) nodeUp(id simnet.NodeID) bool {
	if sys.live != nil {
		return sys.live.cluster.NodeUp(id)
	}
	return sys.sim.NodeUp(id)
}

// setNodeDown crashes or revives a node (battery exhaustion).
func (sys *System) setNodeDown(id simnet.NodeID, down bool) {
	if sys.live != nil {
		sys.live.cluster.SetDown(id, down)
		return
	}
	sys.sim.SetDown(id, down)
}

// reachable reports whether the network currently lets from talk to to.
func (sys *System) reachable(from, to simnet.NodeID) bool {
	if sys.live != nil {
		return sys.live.cluster.Reachable(from, to)
	}
	return sys.sim.Reachable(from, to)
}

// shardCount reports the sharded scheduler's lane count; live runs and
// unsharded simulation report zero.
func (sys *System) shardCount() int {
	if sys.sim != nil {
		return sys.sim.ShardCount()
	}
	return 0
}

// addNode registers a node with the active backend and returns its
// network surface.
func (sys *System) addNode(id simnet.NodeID) simnet.Port {
	if sys.live != nil {
		n, err := sys.live.cluster.AddNode(id)
		if err != nil {
			panic(err)
		}
		return n
	}
	return sys.sim.AddNode(id)
}

// setShard assigns a node to a scheduler lane; a no-op on live runs.
func (sys *System) setShard(id simnet.NodeID, shard int) {
	if sys.sim != nil {
		sys.sim.SetShard(id, shard)
	}
}

// setWANLink installs the scenario's WAN latency between two nodes. On
// the simulator this is a plain link parameter; live it is a shaper
// rule on the loopback fabric (loss 0), scaled like every latency.
func (sys *System) setWANLink(a, b simnet.NodeID, latency time.Duration) {
	if sys.live != nil {
		sys.live.cluster.Fabric().DegradeLink(a, b, latency, 0)
		return
	}
	sys.sim.SetLinkBidirectional(a, b, latency, 0)
}

// messageCount totals delivered messages across the backend.
func (sys *System) messageCount() int {
	if sys.live != nil {
		return int(sys.live.cluster.NetStats().Received)
	}
	return sys.sim.Stats().Delivered
}

// byteCount totals bytes put on the wire across the backend.
func (sys *System) byteCount() int {
	if sys.live != nil {
		return int(sys.live.cluster.NetStats().SentBytes)
	}
	return sys.sim.Stats().Bytes
}

// faultLog returns the events the active injector has fired so far.
func (sys *System) faultLog() []fault.Event {
	if sys.live != nil {
		if sys.live.inj == nil {
			return nil
		}
		return sys.live.inj.Log()
	}
	return sys.injector.Log()
}

// RegisterWire registers every message type the archetypes put on the
// wire — the protocol packages' and core's own — with a wire codec.
func RegisterWire(register func(any)) {
	simnet.RegisterMuxWire(register)
	register(simnet.Envelope{})
	gossip.RegisterWire(register)
	dataflow.RegisterWire(register)
	consensus.RegisterWire(register)
	mape.RegisterWire(register)
	pubsub.RegisterWire(register)
	register(readingMsg{})
	register(readingAck{})
	register(actuateMsg{})
	register(placementCmd{})
}

// liveWireOnce makes the registration with realnet's codec happen once
// per process; it is shared by all live systems.
var liveWireOnce sync.Once

func registerLiveWire() {
	liveWireOnce.Do(func() { RegisterWire(realnet.RegisterWireType) })
}
