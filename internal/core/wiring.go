package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/crdt"
	"repro/internal/dataflow"
	"repro/internal/device"
	"repro/internal/gossip"
	"repro/internal/mape"
	"repro/internal/model"
	"repro/internal/orchestrate"
	"repro/internal/pubsub"
	"repro/internal/simnet"
	"repro/internal/verify"
)

// actTopic is the ML2 actuation topic of a zone.
func actTopic(z int) string {
	if z >= 0 && z < keyTableSize {
		return actTopicTable[z]
	}
	return fmt.Sprintf("act/%d", z)
}

// readingsTopic is the ML2 sensor publication topic.
const readingsTopic = "readings"

// controlFnName is the ML4 deviceless controller function of a zone.
func controlFnName(z int) string {
	if z >= 0 && z < keyTableSize {
		return controlFnTable[z]
	}
	return fmt.Sprintf("zone-controller-%d", z)
}

// --- shared wiring helpers ---

// startSensorsWithReporter arms every sensor's sampling ticker
// delivering through an ack-failover reporter with the given candidate
// lists.
func (sys *System) startSensorsWithReporter(candidates func(*sensorRig) candidateList) {
	for _, rig := range sys.sensors {
		rig := rig
		rig.reporter = newReporter(rig.mux.Port("data"), candidates(rig))
		rig.reporter.bus = sys.bus
		rig.reporter.sticky = sys.cfg.hardened
		rig.ep.Every(sys.cfg.SampleInterval, func() {
			val, ok := rig.sensor.Sample(sys.envm, rig.ep.Rand().NormFloat64())
			if !ok {
				return
			}
			rig.reporter.send(dataflow.Item{
				Key: rig.key, Value: val, Label: rig.label, ProducedAt: rig.ep.Now(),
			})
		})
	}
}

// wireActuatorsDirect installs the direct actuation handler used by
// ML1, ML3 and ML4: envActuate envelopes on the "act" port. A crashed
// actuator loses its engagement; the idempotent periodic commands
// restore it.
func (sys *System) wireActuatorsDirect() {
	for _, rig := range sys.actuators {
		rig := rig
		rig.mux.Port("act").OnEnvelope(func(_ simnet.NodeID, e *simnet.Envelope) {
			if e.Kind == envActuate && int(e.A) == rig.zone {
				rig.lastCmd = rig.ep.Now()
				rig.actuator.SetEngaged(e.Flag)
			}
		})
		sys.armActuatorWatchdog(rig)
	}
}

// armActuatorWatchdog installs the device-local failsafe: disengage on
// crash or when no controller command has arrived within the freshness
// window.
func (sys *System) armActuatorWatchdog(rig *actRig) {
	rig.ep.OnDown(func() { rig.actuator.SetEngaged(false) })
	rig.ep.Every(sys.freshWin, func() {
		if rig.actuator.Engaged() && rig.ep.Now()-rig.lastCmd > sys.freshWin {
			rig.actuator.SetEngaged(false)
		}
	})
}

// controlTick builds a controller pass for the zones the stack
// currently controls: hysteresis band control on fresh data, with
// idempotent actuation commands.
func (sys *System) controlTick(st *edgeStack, controls func(z int) bool, sendAct func(z int, engage bool)) func() {
	cfg := sys.cfg
	mid := (tempLow + tempHigh) / 2
	return func() {
		for z := 0; z < cfg.Zones; z++ {
			if !controls(z) {
				continue
			}
			item, ok := st.view(zoneTempKey(z))
			if !ok {
				continue
			}
			if st.ep.Now()-item.ProducedAt > sys.freshWin {
				continue
			}
			temp, ok := item.Value.(float64)
			if !ok {
				continue
			}
			engage := st.desired[z]
			switch {
			case temp > mid+0.5:
				engage = true
			case temp < mid-0.5:
				engage = false
			}
			st.desired[z] = engage
			sendAct(z, engage)
			if sys.bus.Active() {
				sys.bus.Emit("control.actuate", string(st.id), 0, 0, "zone %d engage=%v", z, engage)
			}
			sys.noteControlOK(z, st.ep.Now())
		}
	}
}

// installLoop attaches a MAPE loop analyzing the given zones' two
// requirements against the stack's data view, counting them toward the
// validation coverage metric. The loop is driven by the stack's own
// ticker, so it pauses while the node is down (an edge loop cannot run
// on a dead edge node — the point of the F5 experiment).
func (sys *System) installLoop(st *edgeStack, zones []int) {
	cfg := sys.cfg
	k := mape.NewKnowledge(knowledgeReplica(st.id), st.ep.Now)
	loop := mape.NewLoop(k, st.ep.Now)
	for _, z := range zones {
		z := z
		loop.AddMonitor(func(k *mape.Knowledge) {
			if item, ok := st.view(zoneTempKey(z)); ok {
				if v, isF := item.Value.(float64); isF {
					k.Put(zoneTempKey(z), v)
					k.Put(zoneTempAgeKey(z), float64(st.ep.Now()-item.ProducedAt))
				}
			}
		})
		loop.AddRule(mape.PropRule{Prop: tempProp(z), Eval: func(k *mape.Knowledge) bool {
			v, ok := k.GetFloat(zoneTempKey(z))
			return ok && v >= tempLow && v <= tempHigh
		}})
		loop.AddRule(mape.PropRule{Prop: freshProp(z), Eval: func(k *mape.Knowledge) bool {
			age, ok := k.GetFloat(zoneTempAgeKey(z))
			return ok && time.Duration(age) <= sys.freshWin
		}})
		loop.AddRequirement(sys.reqTemp[z])
		loop.AddRequirement(sys.reqFresh[z])
		sys.runtimeMonitored += 2
	}
	st.loop = loop
	loop.SetBus(sys.bus, string(st.id))
	st.ep.Every(cfg.ControlInterval, loop.Cycle)
}

// knowledgeReplica derives the CRDT replica ID for a node.
func knowledgeReplica(id simnet.NodeID) crdt.ReplicaID { return crdt.ReplicaID(id) }

// backupFor returns the statically designated ML3 backup cloudlet of a
// zone.
func (sys *System) backupFor(z int) *edgeStack {
	return sys.cloudlets[z%len(sys.cloudlets)]
}

// --- ML1: vertical silo ---

func (sys *System) wireML1() {
	for _, st := range sys.gateways {
		st := st
		st.table = newItemTable()
		st.view = st.table.get
		newCollector(st.mux.Port("data"), func(item dataflow.Item, _ simnet.NodeID) {
			st.table.put(item)
			sys.auditArrival(item, st.id, st.ep)
		})
		actPort := st.mux.Port("act")
		home := st.zone
		st.ep.Every(sys.cfg.ControlInterval, sys.controlTick(st,
			func(z int) bool { return z == home },
			directActuate(actPort),
		))
	}
	sys.startSensorsWithReporter(func(rig *sensorRig) candidateList {
		return fixedCandidates(gatewayID(rig.zone))
	})
	sys.wireActuatorsDirect()
	// ML1 has no validation machinery: runtimeMonitored and
	// designChecked stay 0.
}

// --- ML2: IoT-Cloud ---

func (sys *System) wireML2() {
	cloud := sys.cloud
	cloud.table = newItemTable()
	cloud.view = cloud.table.get
	sys.broker = pubsub.NewBroker(cloud.mux.Port("pubsub"))
	sys.broker.SetBus(sys.bus)
	sys.broker.SubscribeLocal(readingsTopic, func(_ string, payload any) {
		if item, ok := payload.(dataflow.Item); ok {
			cloud.table.put(item)
			sys.auditArrival(item, cloud.id, cloud.ep)
		}
	})

	// Sensors publish through pubsub clients. The bolt-on variant
	// (ablation A1) upgrades to QoS-1 retried publishes — the classic
	// add-on reliability mechanism.
	qos := pubsub.AtMostOnce
	if sys.cfg.BoltOnResilience {
		qos = pubsub.AtLeastOnce
	}
	for _, rig := range sys.sensors {
		rig := rig
		rig.client = pubsub.NewClient(rig.mux.Port("pubsub"), cloudID, pubsub.ClientConfig{
			RetryInterval: sys.cfg.SampleInterval / 4,
			MaxRetries:    3,
		})
		rig.client.SetBus(sys.bus)
		rig.ep.Every(sys.cfg.SampleInterval, func() {
			val, ok := rig.sensor.Sample(sys.envm, rig.ep.Rand().NormFloat64())
			if !ok {
				return
			}
			rig.client.Publish(readingsTopic, dataflow.Item{
				Key: rig.key, Value: val, Label: rig.label, ProducedAt: rig.ep.Now(),
			}, qos)
		})
	}

	// Actuators subscribe to their zone's actuation topic and
	// re-subscribe periodically (the broker forgets subscriptions when
	// the cloud node restarts — ML2's partial automation).
	for _, rig := range sys.actuators {
		rig := rig
		client := pubsub.NewClient(rig.mux.Port("pubsub"), cloudID, pubsub.ClientConfig{})
		client.SetBus(sys.bus)
		handler := func(_ string, payload any) {
			if m, ok := payload.(actuateMsg); ok && m.Zone == rig.zone {
				rig.lastCmd = rig.ep.Now()
				rig.actuator.SetEngaged(m.Engage)
			}
		}
		client.Subscribe(actTopic(rig.zone), handler)
		keepalive := 30 * time.Second
		if sys.cfg.BoltOnResilience {
			keepalive = 5 * time.Second
		}
		rig.ep.Every(keepalive, func() { client.Subscribe(actTopic(rig.zone), handler) })
		sys.armActuatorWatchdog(rig)
	}

	// Cloud-side controller for every zone. Actuation is published
	// retained, so an actuator re-subscribing after a broker restart
	// immediately learns the current command.
	cloud.ep.Every(sys.cfg.ControlInterval, sys.controlTick(cloud,
		func(int) bool { return true },
		func(z int, engage bool) { sys.broker.InjectRetained(actTopic(z), actuateMsg{Zone: z, Engage: engage}) },
	))

	// Validation: runtime monitoring only, centralized in the cloud.
	zones := make([]int, sys.cfg.Zones)
	for z := range zones {
		zones[z] = z
	}
	sys.installLoop(cloud, zones)
}

// --- ML3: edge-centric with static backup ---

func (sys *System) wireML3() {
	wireEdgeCollector := func(st *edgeStack) {
		st.table = newItemTable()
		st.view = st.table.get
		dataPort := st.mux.Port("data")
		newCollector(dataPort, func(item dataflow.Item, _ simnet.NodeID) {
			st.table.put(item)
			sys.auditArrival(item, st.id, st.ep)
			// Bidirectional edge↔cloud flows: forward upstream,
			// fire-and-forget.
			dataPort.Send(cloudID, readingMsg{Seq: 0, Item: item})
		})
		actPort := st.mux.Port("act")
		st.ep.Every(sys.cfg.ControlInterval, sys.controlTick(st,
			func(int) bool { return true }, // data-driven: only zones with fresh local data act
			directActuate(actPort),
		))
	}
	for _, st := range sys.gateways {
		wireEdgeCollector(st)
	}
	for _, st := range sys.cloudlets {
		wireEdgeCollector(st)
	}
	// Cloud ingests forwarded data (analytics consumer, no control).
	sys.cloud.table = newItemTable()
	sys.cloud.view = sys.cloud.table.get
	newCollector(sys.cloud.mux.Port("data"), func(item dataflow.Item, _ simnet.NodeID) {
		sys.cloud.table.put(item)
		sys.auditArrival(item, sys.cloud.id, sys.cloud.ep)
	})

	sys.startSensorsWithReporter(func(rig *sensorRig) candidateList {
		return fixedCandidates(gatewayID(rig.zone), sys.backupFor(rig.zone).id)
	})
	sys.wireActuatorsDirect()

	// Validation: runtime monitors at each gateway for its own zone,
	// plus a task-specific design-time check of the control path's
	// redundancy (gateway + designated backup). Every zone's model has
	// the same shape — its first sensors, its gateway and a cloudlet
	// backup that is neither — so the verdict is computed once, on zone
	// 0's names, and credited to every zone; the check and coverage
	// counters are exactly what a per-zone check would produce.
	cfg := model.NewConfiguration()
	for i := 0; i < min(sys.cfg.TempSensorsPerZone, maxModeledHosts); i++ {
		cfg.Add(model.Component{
			ID:   model.ComponentID(fmt.Sprintf("sense-0-%d", i)),
			Host: string(tempSensorID(0, i)), Provides: []model.Service{"sensing"},
		})
	}
	cfg.Add(model.Component{ID: "ctrl-gw-0",
		Host: string(sys.gateways[0].id), Provides: []model.Service{"control"}, Requires: []model.Service{"sensing"}})
	cfg.Add(model.Component{ID: "ctrl-bak-0",
		Host: string(sys.backupFor(0).id), Provides: []model.Service{"control"}})
	k, err := model.FailureKripke(cfg, model.FailureModelOptions{MaxConcurrentFailures: 1})
	if err != nil {
		panic(err)
	}
	ctrlOK := verify.Check(k, verify.AG(verify.AP(model.ServiceProp("control"))))
	for z, st := range sys.gateways {
		sys.installLoop(st, []int{z})
		if ctrlOK {
			sys.designChecked++ // temperature requirement has a design verdict
		} else {
			sys.designPassed = false
		}
	}
}

// --- ML4: resilient IoT ---

// edgeFanout is the one size rule of the ML4 edge group. Up to 6 edge
// nodes (the paper tier's 4 gateways and 2 cloudlets) it is 0: stores
// and MAPE syncers peer all-to-all and Raft keeps its 50 ms heartbeat.
// Larger groups get 4: each peers with its 4 ring successors, the
// cloud relays writes by declared interest and Raft heartbeats every
// 500 ms, as O(n²) peering and idle appends would otherwise measure
// the mesh instead of the architecture.
func (sys *System) edgeFanout() int {
	if len(sys.edgeIDs()) <= 6 {
		return 0
	}
	return 4
}

// edgePeersOf returns the ML4 sync peers of id among ids: everyone
// else in a small group, or the edgeFanout ring successors (bounded
// degree; deltas still reach every replica transitively around the
// ring and via the cloud hub).
func (sys *System) edgePeersOf(id simnet.NodeID, ids []simnet.NodeID) []simnet.NodeID {
	f := sys.edgeFanout()
	if f == 0 || f >= len(ids)-1 {
		out := make([]simnet.NodeID, 0, len(ids)-1)
		for _, other := range ids {
			if other != id {
				out = append(out, other)
			}
		}
		return out
	}
	self := 0
	for i, other := range ids {
		if other == id {
			self = i
			break
		}
	}
	out := make([]simnet.NodeID, 0, f)
	for k := 1; k <= f; k++ {
		out = append(out, ids[(self+k)%len(ids)])
	}
	return out
}

// maxModeledHosts caps the host count of the service-availability
// Kripke models (control and sensing redundancy). The checked
// verdicts depend only on whether the provider count exceeds
// MaxConcurrentFailures (and repairs are always enabled), so modeling
// 8 of 200 redundant hosts returns the same answer as modeling all of
// them — without the C(200,2) state space. Paper-scale runs (6 edge
// nodes, 2 sensors per zone) stay under the cap and are modeled
// exactly.
const maxModeledHosts = 8

func (sys *System) wireML4() {
	edge := sys.edgeStacks()
	edgeIDs := sys.edgeIDs()
	syncEvery := sys.cfg.ML4SyncInterval
	if syncEvery <= 0 {
		syncEvery = sys.cfg.SampleInterval
	}

	// Replicated governed stores on every edge node and the cloud.
	// When the cloud acts as a redistribution hub (bounded fanout),
	// every edge scopes the hub's relay stream to the zones it actually
	// consumes — home zone, the dashboard it renders, and its
	// raft-assigned controller zones (declared below and re-declared on
	// every placement apply). Without the scoping the hub re-broadcasts
	// every write to every edge, which is almost all of the deployment's
	// sync bytes.
	cloudRelays := sys.edgeFanout() > 0 && sys.cfg.ML4Ablation != "no-sync"
	for _, st := range edge {
		st := st
		var peers []simnet.NodeID
		if sys.cfg.ML4Ablation != "no-sync" {
			peers = append(peers, sys.edgePeersOf(st.id, edgeIDs)...)
			peers = append(peers, cloudID)
		}
		st.store = dataflow.NewStore(st.mux.Port("store"), sys.spaces, dataflow.StoreConfig{
			Peers:        peers,
			SyncInterval: syncEvery,
			Engine:       dataflow.DefaultPrivacyEngine(),
		})
		st.store.OnApply(func(item dataflow.Item, _ simnet.NodeID) { sys.auditArrival(item, st.id, st.ep) })
		st.store.Start()
		st.view = st.store.Get
		if cloudRelays {
			st.store.DeclareInterest(cloudID, sys.ml4InterestKeys(st))
		}
	}
	// With the full all-to-all edge mesh the cloud can stay a passive
	// sink. Under a bounded fanout the edge graph is a directed ring
	// with O(n) diameter, so the cloud — which every edge already
	// pushes to — redistributes: any delta reaches any replica in two
	// sync rounds instead of a trip around the ring.
	var cloudPeers []simnet.NodeID
	if cloudRelays {
		cloudPeers = edgeIDs
	}
	sys.cloud.store = dataflow.NewStore(sys.cloud.mux.Port("store"), sys.spaces, dataflow.StoreConfig{
		Peers:        cloudPeers,
		SyncInterval: syncEvery,
		Engine:       dataflow.DefaultPrivacyEngine(),
		Relay:        len(cloudPeers) > 0,
	})
	sys.cloud.store.OnApply(func(item dataflow.Item, _ simnet.NodeID) { sys.auditArrival(item, sys.cloud.id, sys.cloud.ep) })
	sys.cloud.store.Start()
	sys.cloud.view = sys.cloud.store.Get

	// Collectors put into the local store; CRDT sync distributes.
	for _, st := range edge {
		st := st
		newCollector(st.mux.Port("data"), func(item dataflow.Item, _ simnet.NodeID) {
			st.store.Put(item)
			sys.auditArrival(item, st.id, st.ep)
		})
	}

	// Gossip membership across the edge group.
	gossipCfg := gossip.Config{
		ProbeInterval:    time.Second,
		ProbeTimeout:     200 * time.Millisecond,
		SuspicionTimeout: 3 * time.Second,
	}
	seeds := []simnet.NodeID{sys.gateways[0].id, sys.cloudlets[0].id}
	for _, st := range edge {
		st.gossip = gossip.New(st.mux.Port("gossip"), gossipCfg)
		st.gossip.SetBus(sys.bus)
		st.gossip.Start(seeds...)
	}
	// With backup actuators the rigs join the membership group too, so
	// controllers learn of actuator death and fail actuation over.
	if sys.cfg.BackupActuators > 0 {
		for _, rig := range sys.actuators {
			rig.gossip = gossip.New(rig.mux.Port("gossip"), gossipCfg)
			rig.gossip.SetBus(sys.bus)
			rig.gossip.Start(seeds...)
		}
	}

	// Raft-replicated controller placements computed by a
	// capability-aware orchestrator on the leader.
	for _, st := range edge {
		st := st
		st.orch = orchestrate.New(sys.spaces, func(id device.ID) bool {
			return st.gossip.IsAlive(simnet.NodeID(id))
		})
		for _, other := range edge {
			st.orch.RegisterHost(other.dev)
		}
		var raftCfg consensus.Config
		if sys.edgeFanout() > 0 {
			const hb = 500 * time.Millisecond
			raftCfg.HeartbeatInterval = hb
			// Wide randomization window: with hundreds of members the
			// spread, not the floor, is what avoids split votes.
			raftCfg.ElectionTimeoutMin = 3 * hb
			raftCfg.ElectionTimeoutMax = 10 * hb
		}
		// Island mode needs lease surrender: a leader stranded on the
		// minority side must stop believing its stale placements.
		raftCfg.CheckQuorum = sys.cfg.hardened
		st.raft = consensus.New(st.mux.Port("raft"), edgeIDs, raftCfg, func(_ uint64, cmd consensus.Command) {
			pc, ok := cmd.(placementCmd)
			if !ok {
				return
			}
			st.applied = maps.Clone(pc.Assignments)
			st.appliedBackups = maps.Clone(pc.Backups)
			// Placements moved: refresh this node's relay-interest scope
			// so the hub starts forwarding its newly assigned zones (and
			// stops forwarding ones it lost).
			if cloudRelays && st.store != nil {
				st.store.DeclareInterest(cloudID, sys.ml4InterestKeys(st))
			}
		})
		st.raft.SetBus(sys.bus)
		st.raft.Start()
		if sys.cfg.hardened {
			sys.armIslandGuard(st)
		}
		if sys.cfg.ML4Ablation == "no-replan" {
			// Ablation A2: one initial placement, never revisited.
			st.ep.After(2*sys.cfg.ControlInterval, func() { sys.ml4Replan(st) })
		} else {
			st.ep.Every(2*sys.cfg.ControlInterval, func() { sys.ml4Replan(st) })
		}

		// Controller: runs the zones this node is assigned, commanding
		// the first gossip-alive actuator rig. Without standby rigs no
		// actuator is in the membership group, so the primary is the
		// target whatever the gossip view says.
		actPort := st.mux.Port("act")
		controls := func(z int) bool { return sys.ml4Controls(st, z) }
		sendAct := func(z int, engage bool) {
			target, ok := mape.Failover(sys.actCandidates[z], st.gossip.IsAlive)
			if !ok {
				target = actuatorID(z)
			}
			sendActTo(actPort, target, z, engage)
		}
		st.ep.Every(sys.cfg.ControlInterval, sys.controlTick(st, controls, sendAct))
	}

	// Sensors fail over across the whole edge, nearest first (the
	// "no-failover" ablation pins them to the home gateway instead).
	// The edge is ranked once; each sensor takes its nearest member now
	// and orders the rest only if it ever has to leave it.
	edgeNames := make([]string, len(edgeIDs))
	for i, id := range edgeIDs {
		edgeNames[i] = string(id)
	}
	edgeRank := sys.spaces.Rank(edgeNames)
	sys.startSensorsWithReporter(func(rig *sensorRig) candidateList {
		if sys.cfg.ML4Ablation == "no-failover" {
			return fixedCandidates(gatewayID(rig.zone))
		}
		here, _ := sys.spaces.PlacementOf(string(rig.id)) // buildWorld places every sensor
		return nearestFirst(edgeRank, here.Position)
	})
	sys.wireActuatorsDirect()

	// MAPE at the edge: per-gateway loops with knowledge sharing; the
	// planner reacts to stale data by forcing an immediate store sync.
	var gwIDs []simnet.NodeID
	for _, g := range sys.gateways {
		gwIDs = append(gwIDs, g.id)
	}
	for z, st := range sys.gateways {
		st := st
		sys.installLoop(st, []int{z})
		st.loop.SetPlanner(func(_ *mape.Knowledge, issues []mape.Issue) []mape.Action {
			var out []mape.Action
			for _, is := range issues {
				if is.Prop == freshProp(z) {
					out = append(out, mape.Action{Name: "sync-now"})
				}
			}
			return out
		})
		st.loop.SetExecutor(func(_ *mape.Knowledge, a mape.Action) bool {
			if a.Name != "sync-now" {
				return false
			}
			st.store.SyncNow()
			return true
		})
		peers := sys.edgePeersOf(st.id, gwIDs)
		st.syncer = mape.NewSyncer(st.mux.Port("mape"), st.loop, peers, 2*sys.cfg.SampleInterval)
		st.syncer.Start()
	}

	// Design-time validation of the full edge configuration: control
	// survives any two concurrent edge failures; sensing survives one.
	// The per-zone models are structurally identical — same component
	// count, services and failure bound, only the names differ — so
	// each verdict is computed once and credited to every zone; the
	// check and coverage counters are exactly what the per-zone loop
	// would produce.
	senseCfg := model.NewConfiguration()
	for i := 0; i < min(sys.cfg.TempSensorsPerZone, maxModeledHosts); i++ {
		senseCfg.Add(model.Component{
			ID:   model.ComponentID(fmt.Sprintf("sense-0-%d", i)),
			Host: string(tempSensorID(0, i)), Provides: []model.Service{"sensing"},
		})
	}
	k, err := model.FailureKripke(senseCfg, model.FailureModelOptions{MaxConcurrentFailures: 1})
	if err != nil {
		panic(err)
	}
	senseOK := verify.Check(k, verify.AG(verify.AP(model.ServiceProp("sensing"))))

	ctrlCfg := model.NewConfiguration()
	ctrlHosts := edge
	if len(ctrlHosts) > maxModeledHosts {
		ctrlHosts = ctrlHosts[:maxModeledHosts]
	}
	for _, st := range ctrlHosts {
		ctrlCfg.Add(model.Component{
			ID:   model.ComponentID("ctrl-" + string(st.id)),
			Host: string(st.id), Provides: []model.Service{"control"},
		})
	}
	k2, err := model.FailureKripke(ctrlCfg, model.FailureModelOptions{MaxConcurrentFailures: 2})
	if err != nil {
		panic(err)
	}
	ctrlOK := verify.Check(k2, verify.AG(verify.AP(model.ServiceProp("control")))) &&
		verify.Check(k2, verify.AG(verify.EF(verify.AP("all-up"))))

	for z := 0; z < sys.cfg.Zones; z++ {
		if senseOK {
			sys.designChecked++ // freshness requirement
		} else {
			sys.designPassed = false
		}
		if ctrlOK {
			sys.designChecked++ // temperature requirement
		} else {
			sys.designPassed = false
		}
	}
}

// ml4InterestKeys computes which keys stack st consumes from the cloud
// hub's relay stream — the paper's "what data should enter a component"
// scoping (§VI) applied to redistribution. A gateway consumes its home
// zone (occupancy dashboard) and the zone whose temperature dashboard
// it renders (measure reads zone z's dashboard at gateways[(z+1)%Z], so
// gateway g renders zone (g−1) mod Z); every edge node additionally
// consumes the zones whose controller — primary or backup replica — the
// raft-applied placements currently assign to it. Everything else still
// reaches the node's own ring successors and the hub directly; only the
// hub's re-broadcast is scoped.
func (sys *System) ml4InterestKeys(st *edgeStack) []string {
	zones := make(map[int]bool)
	if st.zone >= 0 {
		zones[st.zone] = true
		zones[(st.zone-1+sys.cfg.Zones)%sys.cfg.Zones] = true
	}
	for z, host := range st.applied {
		if host == st.id {
			zones[z] = true
		}
	}
	for z, host := range st.appliedBackups {
		if host == st.id {
			zones[z] = true
		}
	}
	keys := make([]string, 0, 2*len(zones))
	for z := range zones {
		keys = append(keys, zoneTempKey(z), zoneOccKey(z))
	}
	return keys
}

// armIslandGuard ticks the stack's island-mode state machine: enter
// degraded local operation after a full grace window without Raft
// quorum contact, reconcile and hand control back on rejoin. The
// rejoin order matters: pull peer deltas first (SyncNow), then push
// the island's accumulated knowledge (ShareNow), so both sides hold
// the merged CRDT state before the next placement pass reads it.
func (sys *System) armIslandGuard(st *edgeStack) {
	grace := 3 * sys.cfg.ControlInterval
	st.guard = mape.NewIslandGuard(grace)
	st.ep.Every(sys.cfg.ControlInterval, func() {
		if !st.guard.Observe(st.ep.Now(), st.raft.QuorumContact()) {
			return
		}
		if st.guard.Island() {
			sys.recordAt(st.ep, EventIsland, 0, sys.lastFaultSpan,
				"%s enters island mode: no quorum contact for %s", st.id, grace)
		} else {
			sys.recordAt(st.ep, EventIsland, 0, sys.lastFaultSpan,
				"%s rejoins the quorum: merging island state", st.id)
			st.store.SyncNow()
			if st.syncer != nil {
				st.syncer.ShareNow()
			}
		}
	})
}

// ml4Controls is the ML4 claim rule: does stack st currently control
// zone z?
//
// In island mode the Raft-applied placements are untrustworthy — the
// quorum may have moved them, or frozen — so the island elects locally
// (islandController). Otherwise the applied primary controls, unless
// the stack's membership view says it is dead, in which case the
// zone's applied backup replica takes over, while alive, until the next
// replan lands. Without an island guard or applied backups (the default
// profile) this is applied[z] == st.id. controlTick asks it for every
// zone each tick, so a stack that is not z's backup answers before any
// gossip lookup.
func (sys *System) ml4Controls(st *edgeStack, z int) bool {
	if st.guard != nil && st.guard.Island() {
		return sys.islandController(st, z) == st.id
	}
	primary := st.applied[z]
	if primary == st.id {
		return true
	}
	if st.appliedBackups[z] != st.id || primary == "" || st.gossip.IsAlive(primary) {
		return false
	}
	return st.gossip.IsAlive(st.id)
}

// islandController elects zone z's controller inside st's island: the
// zone's home gateway while the island still sees it alive, else the
// applied backup replica if alive, else the lowest-ID alive edge
// node. Every island member computes the same answer from the same
// local membership view, so the election needs no coordination — and a
// data-less claimant is harmless, since both the control tick and the
// measurement path require fresh local data to act.
func (sys *System) islandController(st *edgeStack, z int) simnet.NodeID {
	if home := gatewayID(z); st.gossip.IsAlive(home) {
		return home
	}
	if id, ok := st.appliedBackups[z]; ok && st.gossip.IsAlive(id) {
		return id
	}
	for _, id := range sys.edgeIDs() {
		if st.gossip.IsAlive(id) {
			return id
		}
	}
	return st.id
}

// ml4Replan runs on every edge node's ticker; only the current Raft
// leader computes and proposes placements.
func (sys *System) ml4Replan(st *edgeStack) {
	if st.raft.Role() != consensus.Leader {
		return
	}
	desired := make(map[int]simnet.NodeID, sys.cfg.Zones)
	var backups map[int]simnet.NodeID
	if sys.cfg.hardened {
		backups = make(map[int]simnet.NodeID, sys.cfg.Zones)
	}
	for z := 0; z < sys.cfg.Zones; z++ {
		fn := orchestrate.Function{
			Name:       controlFnName(z),
			Requires:   []device.Capability{device.CapControl},
			CPUMIPS:    50,
			MemMB:      32,
			PreferEdge: true,
		}
		zoned := fn
		zoned.Zone = zoneID(z)
		host, err := st.orch.Deploy(zoned)
		if err != nil {
			host, err = st.orch.Deploy(fn)
		}
		if err != nil {
			continue
		}
		desired[z] = simnet.NodeID(host)
		if backups != nil {
			// Partition-aware spreading: the backup replica avoids the
			// primary's host AND the zone's own gateway, so severing the
			// zone never isolates both.
			rep := fn
			rep.Name = controlFnName(z) + "#b1"
			avoid := map[device.ID]bool{host: true, device.ID(gatewayID(z)): true}
			if bHost, err := st.orch.DeployAvoiding(rep, avoid); err == nil {
				backups[z] = simnet.NodeID(bHost)
			}
		}
	}
	if !placementsEqual(desired, st.applied) || !placementsEqual(backups, st.appliedBackups) {
		st.raft.Propose(placementCmd{Assignments: desired, Backups: backups})
		detail := formatPlacements(desired, "→")
		if len(backups) > 0 {
			// The default profile places no backups.
			detail += " backups " + formatPlacements(backups, "⇢")
		}
		sys.recordAt(st.ep, EventPlacement, 0, sys.lastFaultSpan, "leader %s proposes %s", st.id, detail)
	}

	// models@runtime (roadmap, validation vector): re-verify the
	// design-time control-availability property against the *current*
	// membership view. A false verdict is an early warning that the
	// failure assumption (any 2 concurrent edge failures survivable)
	// no longer holds — before it actually bites.
	sys.runtimeChecks.Add(1)
	alive := st.gossip.Alive()
	if sys.cfg.BackupActuators > 0 {
		// Actuator rigs share the membership group then; the control-
		// availability model is over edge hosts only.
		alive = sys.edgeSubset(alive)
	}
	key := nodeSetKey(alive)
	if key != st.ctlCheckKey {
		hosts := alive
		if len(hosts) > maxModeledHosts {
			hosts = hosts[:maxModeledHosts] // see maxModeledHosts: verdict-preserving
		}
		cfg := model.NewConfiguration()
		for _, id := range hosts {
			cfg.Add(model.Component{
				ID:   model.ComponentID("ctrl-" + string(id)),
				Host: string(id), Provides: []model.Service{"control"},
			})
		}
		k, err := model.FailureKripke(cfg, model.FailureModelOptions{MaxConcurrentFailures: 2})
		st.ctlCheckKey = key
		st.ctlCheckOK = err == nil && verify.Check(k, verify.AG(verify.AP(model.ServiceProp("control"))))
	}
	if !st.ctlCheckOK {
		sys.runtimeAlerts.Add(1)
		sys.recordOn(st.ep, EventAlert, "failure assumption unsatisfiable with %d alive edge nodes", len(alive))
	}
}

// nodeSetKey renders a sorted node list as a compact signature for
// verdict caching.
func nodeSetKey(ids []simnet.NodeID) string {
	n := 0
	for _, id := range ids {
		n += len(id) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for _, id := range ids {
		b.WriteString(string(id))
		b.WriteByte(',')
	}
	return b.String()
}

// formatPlacements renders a per-zone host map compactly and stably:
// "z<zone><arrow><host>" in zone order.
func formatPlacements(m map[int]simnet.NodeID, arrow string) string {
	parts := make([]string, 0, len(m))
	for z := 0; z < len(m)+16 && len(parts) < len(m); z++ { // zones are small dense ints
		if host, ok := m[z]; ok {
			parts = append(parts, fmt.Sprintf("z%d%s%s", z, arrow, host))
		}
	}
	return strings.Join(parts, " ")
}

func placementsEqual(a, b map[int]simnet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for z, h := range a {
		if b[z] != h {
			return false
		}
	}
	return true
}

// edgeSubset filters a sorted membership list down to edge hosts.
func (sys *System) edgeSubset(ids []simnet.NodeID) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(ids))
	for _, id := range ids {
		if _, found := slices.BinarySearch(sys.edgeIDs(), id); found {
			out = append(out, id)
		}
	}
	return out
}

// placementCmd is the Raft command replicating controller placements:
// the per-zone primary plus, under the hardened profile, the backup
// replica.
type placementCmd struct {
	Assignments map[int]simnet.NodeID
	Backups     map[int]simnet.NodeID
}
