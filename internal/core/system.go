package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/dataflow"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/mape"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/orchestrate"
	"repro/internal/pubsub"
	"repro/internal/simnet"
	"repro/internal/space"
	"repro/internal/verify"
)

// dataView reads a node's current belief about a data key.
type dataView func(key string) (dataflow.Item, bool)

// sensorRig is one sensor device with its delivery path. ep is the
// node's network surface: a simulator endpoint in sim runs, a live UDP
// realnet node in live runs — all wiring is written against the Port
// seam so the same protocol code drives both.
type sensorRig struct {
	id       simnet.NodeID
	zone     int
	ep       simnet.Port
	mux      *simnet.Mux
	dev      *device.Device
	sensor   *device.Sensor
	reporter *reporter      // ML1/3/4
	client   *pubsub.Client // ML2
	label    dataflow.Label
	key      string
}

// actRig is one actuator device.
type actRig struct {
	id       simnet.NodeID
	zone     int
	ep       simnet.Port
	mux      *simnet.Mux
	dev      *device.Device
	actuator *device.Actuator
	// lastCmd drives the device-local watchdog: an actuator that
	// stops hearing from its controller disengages rather than run
	// away (a standard hardware failsafe, present at every maturity
	// level).
	lastCmd time.Duration
	// gossip joins actuator rigs to the ML4 membership group when the
	// zones have backup actuators, so controllers detect actuator death
	// and fail actuation over (DESIGN.md §9).
	gossip *gossip.Protocol
}

// edgeStack is one edge or cloud node with whatever subsystems its
// archetype installed.
type edgeStack struct {
	id   simnet.NodeID
	ep   simnet.Port
	mux  *simnet.Mux
	dev  *device.Device
	zone int // home zone; -1 for cloudlets and cloud

	table *itemTable      // ML1–ML3 latest-value store
	store *dataflow.Store // ML4 replicated store
	view  dataView

	desired map[int]bool              // controller hysteresis memory per zone
	applied map[int]simnet.NodeID     // ML4: raft-applied controller placements
	raft    *consensus.Node           // ML4
	gossip  *gossip.Protocol          // ML4
	orch    *orchestrate.Orchestrator // ML4: leader-side placement brain
	loop    *mape.Loop                // ML2+: analysis at this node
	syncer  *mape.Syncer              // ML4 knowledge sharing

	// appliedBackups mirrors applied for the raft-replicated backup
	// controller: one replica node per zone, off the primary's host and
	// the zone's gateway. guard is the island-mode state machine. Both
	// stay nil outside the hardened profile.
	appliedBackups map[int]simnet.NodeID
	guard          *mape.IslandGuard

	// ml4Replan's models@runtime verdict depends only on the alive
	// membership set; the leader re-checks every tick, so the verdict
	// for the last-seen set is cached under its signature.
	ctlCheckKey string
	ctlCheckOK  bool
}

// System is one archetype instance of the scenario, ready to Run.
type System struct {
	cfg  ScenarioConfig
	arch Archetype

	// world is the backend the system runs on — the simulator, or a
	// cluster of real UDP sockets on the wall clock — and injector the
	// one fault injector driving it. Building, measurement and control
	// go through world; sim is the same simulator again (nil on a live
	// system) for what only a simulator has: the run loop and lanes.
	world    world
	sim      *simnet.Sim
	envm     *env.Environment
	spaces   *space.Map
	injector *fault.Injector

	sensors   []*sensorRig
	actuators []*actRig
	// actCandidates lists each zone's actuation targets in failover
	// priority order: the primary first, then the backup rigs.
	actCandidates [][]simnet.NodeID
	gateways      []*edgeStack
	cloudlets     []*edgeStack
	// Caches over the fixed post-buildWorld topology.
	edgeStackCache []*edgeStack
	edgeIDCache    []simnet.NodeID
	cloud          *edgeStack
	broker         *pubsub.Broker // ML2

	reqTemp  []*model.Requirement
	reqFresh []*model.Requirement
	// auditors holds one privacy auditor per scheduler lane (one in
	// all when unsharded or live), so concurrent shard windows never
	// share auditor state. The per-item verdict is stateless, so the
	// summed violation count is shard-count-invariant.
	auditors []*dataflow.Engine
	freshWin time.Duration
	warmup   time.Duration

	// Measurement state. Requirement satisfaction is not kept here: the
	// journal's violation and recovery records are its only account
	// (see Outages).
	servable    metrics.Ratio
	invocations metrics.Ratio
	dataAvail   metrics.Ratio
	staleness   *metrics.LatencyRecorder
	// lastControlOK[z] is the lane-shared "when did zone z last see a
	// successful control tick" watermark, advanced monotonically via
	// CAS-max: writes are time-ordered within a zone, so the maximum
	// equals the last write and legacy behavior is preserved exactly.
	lastControlOK []atomic.Int64

	runtimeMonitored int
	designChecked    int
	designPassed     bool
	// models@runtime: the ML4 leader re-verifies the control
	// availability model against the live membership view on every
	// replanning pass. Atomic because replanning runs on leader nodes'
	// events, which execute on shard lanes in sharded mode.
	runtimeChecks atomic.Int64
	runtimeAlerts atomic.Int64

	journal []RunEvent
	// laneJournals buffers journal records per lane in sharded mode,
	// keyed by logical event sequence; mergeJournal flattens them into
	// journal after the run. Nil at Shards = 0.
	laneJournals [][]laneEvent

	// Observability: every subsystem publishes onto one bus reading
	// virtual time. Causal chaining state links each violation and
	// recovery back to the most recent injected fault.
	bus           *obs.Bus
	lastFaultSpan uint64
	// tempViolSpan[z] and freshViolSpan[z] are the spans of zone z's
	// open temperature and freshness violations, 0 while the requirement
	// holds. Both are nil until the first post-warmup sample.
	tempViolSpan  []uint64
	freshViolSpan []uint64
}

// NewSystem builds the scenario at the given maturity level.
func NewSystem(cfg ScenarioConfig, arch Archetype) *System {
	cfg = cfg.withDefaults()
	simOpts := []simnet.Option{simnet.WithSeed(cfg.Seed), simnet.WithDefaultLatency(2 * time.Millisecond)}
	if cfg.Shards > 0 {
		simOpts = append(simOpts, simnet.WithShards(cfg.Shards))
	}
	sim := simnet.New(simOpts...)
	return newSystem(cfg, arch, sim, simWorld{sim})
}

// newSystem is the shared constructor: the same topology, wiring and
// armed fault schedule on whichever world it is handed. cfg has its
// defaults; sim is nil on a live world.
func newSystem(cfg ScenarioConfig, arch Archetype, sim *simnet.Sim, w world) *System {
	// A reading is fresh at the controller while its age is at most
	// freshnessFactor × SampleInterval.
	const freshnessFactor = 4
	sys := &System{
		cfg:          cfg,
		arch:         arch,
		world:        w,
		sim:          sim,
		injector:     fault.NewInjector(w),
		envm:         env.New(cfg.Seed + 1),
		spaces:       space.NewMap(),
		freshWin:     freshnessFactor * cfg.SampleInterval,
		warmup:       cfg.Duration / 20,
		staleness:    &metrics.LatencyRecorder{},
		designPassed: true,
		// Presize the run journal: growth reallocations on the hot
		// record path would otherwise dominate short runs.
		journal: make([]RunEvent, 0, 256),
	}
	sys.bus = obs.NewBus(w.Now)
	n := sys.shardCount()
	if n > 0 {
		sys.laneJournals = make([][]laneEvent, n+1)
	}
	sys.auditors = make([]*dataflow.Engine, n+1)
	for i := range sys.auditors {
		sys.auditors[i] = dataflow.ObservedEngine()
	}
	sys.buildWorld()
	sys.buildRequirements()
	switch arch {
	case ML1:
		sys.wireML1()
	case ML2:
		sys.wireML2()
	case ML3:
		sys.wireML3()
	case ML4:
		sys.wireML4()
	default:
		panic(fmt.Sprintf("core: unknown archetype %v", arch))
	}
	sys.injector.Arm(buildFaults(cfg))
	sys.injector.Subscribe(sys.onFault)
	sys.injector.Subscribe(func(ev fault.Event) {
		// Each fault roots a causal chain: the violations it provokes
		// and the recoveries that resolve them are parented on its span.
		span := sys.bus.NewSpanID()
		sys.lastFaultSpan = span
		sys.recordSpan(EventFault, span, 0, "%s%s", ev.Kind, faultDetail(ev))
	})
	return sys
}

// Bus returns the system's observability bus. Attach subscribers (a
// trace collector, a metrics registry) before Run; with none attached
// the instrumentation is near-free.
func (sys *System) Bus() *obs.Bus { return sys.bus }

// faultDetail renders the target of a fault event for the journal.
func faultDetail(ev fault.Event) string {
	switch {
	case ev.From != "" || ev.To != "":
		return fmt.Sprintf(" %s↔%s", ev.From, ev.To)
	case ev.Node != "" && ev.Detail != "":
		return fmt.Sprintf(" %s %s", ev.Node, ev.Detail)
	case ev.Node != "":
		return " " + string(ev.Node)
	case ev.Detail != "":
		return " " + ev.Detail
	default:
		return ""
	}
}

// zoneID names zone z in the spatial model.
func zoneID(z int) space.ZoneID {
	if z >= 0 && z < keyTableSize {
		return zoneIDTable[z]
	}
	return space.ZoneID(fmt.Sprintf("zone-%d", z))
}

// buildWorld creates domains, zones, environment processes, devices
// and their simulator nodes — everything archetype-independent.
func (sys *System) buildWorld() {
	cfg := sys.cfg
	sys.spaces.AddDomain(space.Domain{ID: "campus", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	sys.spaces.AddDomain(space.Domain{ID: "cloudprov", Jurisdiction: space.JurisdictionCCPA, Trusted: true})

	for z := 0; z < cfg.Zones; z++ {
		x0 := float64(z) * 100
		if err := sys.spaces.AddZone(space.Zone{
			ID:  zoneID(z),
			Min: space.Point{X: x0, Y: 0}, Max: space.Point{X: x0 + 90, Y: 90},
			DomainID: "campus",
		}); err != nil {
			panic(err)
		}
		sys.envm.Define(zoneID(z), env.Temperature, env.Process{
			Initial: tempInit, Drift: cfg.Drift, Noise: envNoise,
			ShockProb: cfg.ShockProb, ShockMag: shockMag,
			Min: -20, Max: 60,
		})
		sys.envm.Define(zoneID(z), env.Occupancy, env.Process{
			Initial: 5, Noise: 0.5, Min: 0, Max: 50,
		})
	}

	place := func(id simnet.NodeID, z int, dx, dy float64, dom space.DomainID) {
		x0 := 0.0
		if z >= 0 {
			x0 = float64(z) * 100
		}
		sys.spaces.Place(string(id), space.Point{X: x0 + dx, Y: dy}, dom)
	}

	// Zone→shard partitioning: contiguous zone blocks, so intra-zone
	// traffic (sensors↔gateway↔actuators — the overwhelming bulk) stays
	// shard-local and only gateway↔gateway, gateway↔cloudlet and WAN
	// traffic crosses lanes. SetShard is a no-op at Shards = 0.
	shards := sys.shardCount()
	shardFor := func(z int) int {
		if shards > 1 && z >= 0 {
			return z * shards / cfg.Zones
		}
		return 0
	}

	// Devices and nodes.
	for z := 0; z < cfg.Zones; z++ {
		for i := 0; i < cfg.TempSensorsPerZone; i++ {
			id := tempSensorID(z, i)
			dev := device.New(device.ID(id), device.Config{
				Class:        device.ClassSensorNode,
				Capabilities: []device.Capability{device.SenseCap(env.Temperature)},
			})
			rig := &sensorRig{
				id: id, zone: z, dev: dev,
				sensor: &device.Sensor{Device: dev, Zone: zoneID(z), Variable: env.Temperature, NoiseStd: 0.05},
				label: dataflow.Label{
					Topic: "temperature", Sensitivity: dataflow.Public,
					Origin: "campus", Jurisdiction: space.JurisdictionGDPR,
				},
				key: zoneTempKey(z),
			}
			rig.ep = sys.world.AddNode(id)
			rig.mux = simnet.NewPortMux(rig.ep)
			sys.setShard(id, shardFor(z))
			sys.sensors = append(sys.sensors, rig)
			place(id, z, 10+float64(i)*5, 10, "campus")
		}
		occ := occSensorID(z)
		occDev := device.New(device.ID(occ), device.Config{
			Class:        device.ClassSensorNode,
			Capabilities: []device.Capability{device.SenseCap(env.Occupancy)},
		})
		occRig := &sensorRig{
			id: occ, zone: z, dev: occDev,
			sensor: &device.Sensor{Device: occDev, Zone: zoneID(z), Variable: env.Occupancy, NoiseStd: 0.2},
			label: dataflow.Label{
				Topic: "occupancy", Sensitivity: dataflow.Sensitive,
				Origin: "campus", Jurisdiction: space.JurisdictionGDPR,
			},
			key: zoneOccKey(z),
		}
		occRig.ep = sys.world.AddNode(occ)
		occRig.mux = simnet.NewPortMux(occRig.ep)
		sys.setShard(occ, shardFor(z))
		sys.sensors = append(sys.sensors, occRig)
		place(occ, z, 20, 20, "campus")

		act := actuatorID(z)
		actDev := device.New(device.ID(act), device.Config{
			Class:        device.ClassActuatorNode,
			Resources:    &device.Resources{Mains: true},
			Capabilities: []device.Capability{device.ActuateCap("hvac")},
		})
		actR := &actRig{
			id: act, zone: z, dev: actDev,
			actuator: &device.Actuator{Device: actDev, Zone: zoneID(z), Variable: env.Temperature, Effect: cfg.CoolRate},
		}
		actR.ep = sys.world.AddNode(act)
		actR.mux = simnet.NewPortMux(actR.ep)
		sys.setShard(act, shardFor(z))
		sys.actuators = append(sys.actuators, actR)
		place(act, z, 40, 40, "campus")

		cands := []simnet.NodeID{act}
		for b := 0; b < cfg.BackupActuators; b++ {
			bid := backupActuatorID(z, b)
			bDev := device.New(device.ID(bid), device.Config{
				Class:        device.ClassActuatorNode,
				Resources:    &device.Resources{Mains: true},
				Capabilities: []device.Capability{device.ActuateCap("hvac")},
			})
			bR := &actRig{
				id: bid, zone: z, dev: bDev,
				actuator: &device.Actuator{Device: bDev, Zone: zoneID(z), Variable: env.Temperature, Effect: cfg.CoolRate},
			}
			bR.ep = sys.world.AddNode(bid)
			bR.mux = simnet.NewPortMux(bR.ep)
			sys.setShard(bid, shardFor(z))
			sys.actuators = append(sys.actuators, bR)
			place(bid, z, 35+float64(b)*3, 42, "campus")
			cands = append(cands, bid)
		}
		sys.actCandidates = append(sys.actCandidates, cands)

		gw := gatewayID(z)
		sys.gateways = append(sys.gateways, sys.newEdgeStack(gw, z, device.ClassGateway))
		sys.setShard(gw, shardFor(z))
		place(gw, z, 45, 45, "campus")
	}
	for i := 0; i < cfg.Cloudlets; i++ {
		cl := cloudletID(i)
		sys.cloudlets = append(sys.cloudlets, sys.newEdgeStack(cl, -1, device.ClassCloudlet))
		if shards > 1 {
			// Cloudlets have no home zone; spread them across lanes.
			sys.setShard(cl, i*shards/cfg.Cloudlets)
		}
		place(cl, -1, 50+float64(i)*10, 120, "campus")
	}
	sys.cloud = sys.newEdgeStack(cloudID, -1, device.ClassCloudVM)
	sys.setShard(cloudID, 0)
	place(cloudID, -1, 500, 500, "cloudprov")

	// WAN links to the cloud: 40ms each way (live, a zero-loss shaper
	// rule on the loopback sockets, scaled like every latency).
	for _, id := range sys.allNodeIDs() {
		if id != cloudID {
			sys.world.DegradeLink(id, cloudID, 40*time.Millisecond, 0)
		}
	}
}

// newEdgeStack registers the node and device for an edge/cloud host.
func (sys *System) newEdgeStack(id simnet.NodeID, zone int, class device.Class) *edgeStack {
	ep := sys.world.AddNode(id)
	st := &edgeStack{
		id:      id,
		ep:      ep,
		mux:     simnet.NewPortMux(ep),
		dev:     device.New(device.ID(id), device.Config{Class: class}),
		zone:    zone,
		desired: make(map[int]bool),
	}
	return st
}

// allNodeIDs returns every registered node ID, sorted.
func (sys *System) allNodeIDs() []simnet.NodeID {
	var out []simnet.NodeID
	for _, s := range sys.sensors {
		out = append(out, s.id)
	}
	for _, a := range sys.actuators {
		out = append(out, a.id)
	}
	for _, g := range sys.gateways {
		out = append(out, g.id)
	}
	for _, c := range sys.cloudlets {
		out = append(out, c.id)
	}
	out = append(out, cloudID)
	slices.Sort(out)
	return out
}

// edgeStacks returns gateways then cloudlets. The topology is fixed
// after buildWorld, so the slice is computed once and cached; callers
// must not mutate it.
func (sys *System) edgeStacks() []*edgeStack {
	if sys.edgeStackCache == nil {
		out := append([]*edgeStack(nil), sys.gateways...)
		sys.edgeStackCache = append(out, sys.cloudlets...)
	}
	return sys.edgeStackCache
}

// edgeIDs returns the IDs of all edge nodes, sorted. Cached for the
// same reason as edgeStacks; callers must not mutate the result.
func (sys *System) edgeIDs() []simnet.NodeID {
	if sys.edgeIDCache == nil {
		out := make([]simnet.NodeID, 0, len(sys.gateways)+len(sys.cloudlets))
		for _, st := range sys.edgeStacks() {
			out = append(out, st.id)
		}
		slices.Sort(out)
		sys.edgeIDCache = out
	}
	return sys.edgeIDCache
}

// buildRequirements creates the requirements: per zone, a temperature
// band requirement and a data freshness requirement.
func (sys *System) buildRequirements() {
	cfg := sys.cfg
	sys.lastControlOK = make([]atomic.Int64, cfg.Zones)
	for z := 0; z < cfg.Zones; z++ {
		sys.lastControlOK[z].Store(int64(-time.Hour))
		sys.reqTemp = append(sys.reqTemp, &model.Requirement{
			ID: model.RequirementID(fmt.Sprintf("R-temp-%d", z)), Prop: tempProp(z),
			Description: fmt.Sprintf("zone %d temperature within [%.0f,%.0f]", z, tempLow, tempHigh),
		})
		sys.reqFresh = append(sys.reqFresh, &model.Requirement{
			ID: model.RequirementID(fmt.Sprintf("R-fresh-%d", z)), Prop: freshProp(z),
			Description: fmt.Sprintf("zone %d readings fresh at controller", z),
		})
	}
}

func tempProp(z int) verify.Prop  { return verify.Prop(fmt.Sprintf("z%d:temp_ok", z)) }
func freshProp(z int) verify.Prop { return verify.Prop(fmt.Sprintf("z%d:fresh", z)) }

// onFault handles model-level fault events (domain transfer, stack
// upgrade, battery drain) that the network injector delegates.
func (sys *System) onFault(ev fault.Event) {
	switch ev.Kind {
	case fault.KindDomainTransfer:
		_ = sys.spaces.Transfer(string(ev.Node), space.DomainID(ev.Detail))
	case fault.KindStackUpgrade:
		if d := sys.deviceOf(ev.Node); d != nil {
			d.UpgradeStack()
		}
	case fault.KindBatteryDrain:
		if d := sys.deviceOf(ev.Node); d != nil {
			for !d.Drained() && !d.Resources().Mains {
				if d.Idle(time.Hour) {
					break
				}
			}
		}
	}
}

// deviceOf finds the device model behind a node ID.
func (sys *System) deviceOf(id simnet.NodeID) *device.Device {
	for _, s := range sys.sensors {
		if s.id == id {
			return s.dev
		}
	}
	for _, a := range sys.actuators {
		if a.id == id {
			return a.dev
		}
	}
	for _, st := range sys.edgeStacks() {
		if st.id == id {
			return st.dev
		}
	}
	if sys.cloud != nil && sys.cloud.id == id {
		return sys.cloud.dev
	}
	return nil
}

// auditArrival counts privacy violations: the uniform observe-only
// auditor checks every item that actually landed on a node, whatever
// mechanism carried it there. ep is the landing node's endpoint — the
// event runs on its lane in sharded mode, so the check uses that
// lane's engine and clock. The per-item verdict is stateless, so the
// summed count is shard-count-invariant.
func (sys *System) auditArrival(item dataflow.Item, at simnet.NodeID, ep simnet.Port) {
	fromDom, _ := sys.spaces.Domain(item.Label.Origin)
	pl, ok := sys.spaces.PlacementOf(string(at))
	if !ok {
		return
	}
	toDom, _ := sys.spaces.Domain(pl.Domain)
	if fromDom.ID == toDom.ID {
		return // intra-domain placement is never a flow violation
	}
	eng := sys.auditors[0]
	if len(sys.auditors) > 1 {
		// Several auditors only in sharded simulation, where every ep
		// is a simulator endpoint.
		sep, _ := ep.(*simnet.Endpoint)
		laneIdx, _, _ := sys.sim.ExecContext(sep)
		eng = sys.auditors[laneIdx]
	}
	before := eng.ViolationCount()
	eng.Admit(dataflow.FlowContext{Item: item, From: fromDom, To: toDom}, ep.Now())
	if eng.ViolationCount() > before {
		sys.recordOn(ep, EventPrivacy, "item %s observed at %s (origin %s)", item.Key, at, item.Label.Origin)
	}
}

// noteControlOK advances zone z's control watermark to t. CAS-max:
// writes within a zone are time-ordered, so the maximum is the latest
// write, and concurrent writers from different lanes cannot lose an
// update.
func (sys *System) noteControlOK(z int, t time.Duration) {
	a := &sys.lastControlOK[z]
	for {
		old := a.Load()
		if int64(t) <= old {
			return
		}
		if a.CompareAndSwap(old, int64(t)) {
			return
		}
	}
}

// SyncTraffic totals the replication link counters across every
// replicated store in the system (edge stores in deterministic order,
// then the cloud hub). Zero-valued for architectures without stores.
func (sys *System) SyncTraffic() dataflow.LinkStats {
	var total dataflow.LinkStats
	for _, st := range sys.edgeStacks() {
		if st.store != nil {
			total.Add(st.store.SyncStats())
		}
	}
	if sys.cloud != nil && sys.cloud.store != nil {
		total.Add(sys.cloud.store.SyncStats())
	}
	return total
}

// violationCount sums privacy violations across the lanes' auditors.
func (sys *System) violationCount() int {
	n := 0
	for _, e := range sys.auditors {
		n += e.ViolationCount()
	}
	return n
}
