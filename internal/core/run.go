package core

import (
	"time"

	"repro/internal/env"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// Run executes the scenario to its horizon and returns the measured
// report. Run may be called once per System.
func (sys *System) Run() Report {
	sys.startEnvironmentLoop()
	sys.startMeasurementLoop()
	sys.sim.RunUntil(sys.cfg.Duration)
	sys.mergeJournal()
	if st := sys.SyncTraffic(); st.FramesSent > 0 || st.FramesIn > 0 {
		// One summary line at the horizon, after the lane merge so it
		// lands last regardless of shard count.
		sys.record(EventSync, "frames=%d entries=%d bytes=%d acks=%d",
			st.FramesSent, st.EntriesSent, st.BytesSent, st.AcksIn)
	}
	return sys.report()
}

// envTickBody advances the physical world by one step: environment
// processes, actuator effects and battery drain. Shared between the
// simulated scheduler loop and the live wall-clock driver.
func (sys *System) envTickBody(step time.Duration) {
	sys.envm.Step(step)
	for _, rig := range sys.actuators {
		// A crashed actuator node has no effect on the world.
		if sys.world.NodeUp(rig.id) {
			rig.actuator.Apply(sys.envm, step)
		}
	}
	for _, rig := range sys.sensors {
		if rig.dev.Idle(step) {
			// Battery exhausted: the node goes dark.
			sys.world.SetDown(rig.id, true)
		}
	}
}

// startEnvironmentLoop advances the physical world: environment
// processes, actuator effects and battery drain, every EnvStep.
func (sys *System) startEnvironmentLoop() {
	step := sys.cfg.EnvStep
	var tick func()
	tick = func() {
		sys.envTickBody(step)
		if sys.sim.Now()+step <= sys.cfg.Duration {
			sys.sim.After(step, tick)
		}
	}
	sys.sim.After(step, tick)
}

// sampleInvocations records one invocation-success sample per zone:
// did each zone see a successful control tick within 1.5 control
// intervals?
func (sys *System) sampleInvocations() {
	inv := sys.cfg.ControlInterval
	for z := 0; z < sys.cfg.Zones; z++ {
		ok := sys.world.Now()-time.Duration(sys.lastControlOK[z].Load()) <= inv+inv/2
		sys.invocations.RecordOutcome(ok)
	}
}

// startMeasurementLoop samples ground truth and per-vector metrics.
func (sys *System) startMeasurementLoop() {
	step := sys.cfg.EnvStep
	var tick func()
	tick = func() {
		if sys.sim.Now() >= sys.warmup {
			sys.measure()
		}
		if sys.sim.Now()+step <= sys.cfg.Duration {
			sys.sim.After(step, tick)
		}
	}
	sys.sim.After(step, tick)

	inv := sys.cfg.ControlInterval
	var invTick func()
	invTick = func() {
		if sys.sim.Now() >= sys.warmup {
			sys.sampleInvocations()
		}
		if sys.sim.Now()+inv <= sys.cfg.Duration {
			sys.sim.After(inv, invTick)
		}
	}
	sys.sim.After(inv, invTick)
}

// controllerStack resolves which stack currently controls zone z (and
// is up), per the archetype's rules.
func (sys *System) controllerStack(z int) (*edgeStack, bool) {
	switch sys.arch {
	case ML1:
		st := sys.gateways[z]
		return st, sys.world.NodeUp(st.id)
	case ML2:
		return sys.cloud, sys.world.NodeUp(cloudID)
	case ML3:
		if sys.world.NodeUp(sys.gateways[z].id) {
			return sys.gateways[z], true
		}
		bak := sys.backupFor(z)
		return bak, sys.world.NodeUp(bak.id)
	case ML4:
		// Several stacks may claim a zone during a partition (an
		// islanded node and the quorum side both believe they control
		// it). The default profile's effective controller is the first
		// claimant; the hardened profile's is the first claimant
		// actually holding fresh data — the only one whose control tick
		// can act — falling back to the first bare claimant when nobody
		// has data.
		var first *edgeStack
		for _, st := range sys.edgeStacks() {
			if !sys.ml4Controls(st, z) || !sys.world.NodeUp(st.id) {
				continue
			}
			if !sys.cfg.hardened {
				return st, true
			}
			if _, fresh := sys.freshAt(st.view, zoneTempKey(z)); fresh {
				return st, true
			}
			if first == nil {
				first = st
			}
		}
		return first, first != nil
	default:
		return nil, false
	}
}

// servableCandidates lists the collectors a zone's sensors may use
// under the archetype's binding rules — the pervasiveness vector
// measures how often at least one is alive and reachable.
func (sys *System) servableCandidates(z int) []simnet.NodeID {
	switch sys.arch {
	case ML1:
		return []simnet.NodeID{gatewayID(z)}
	case ML2:
		return []simnet.NodeID{cloudID}
	case ML3:
		return []simnet.NodeID{gatewayID(z), sys.backupFor(z).id}
	case ML4:
		return sys.edgeIDs()
	default:
		return nil
	}
}

// freshAt reports whether key is present and fresh in the given view.
func (sys *System) freshAt(view dataView, key string) (time.Duration, bool) {
	if view == nil {
		return 0, false
	}
	item, ok := view(key)
	if !ok {
		return 0, false
	}
	age := sys.world.Now() - item.ProducedAt
	return age, age <= sys.freshWin
}

// monitor journals zone z's requirement req when its satisfaction
// flips: a violation record under a new span when it stops holding, a
// recovery record closing that span when it holds again. span is the
// zone's open-violation span for req, 0 while the requirement holds.
func (sys *System) monitor(span *uint64, z int, req string, ok bool, temp float64) {
	if ok == (*span == 0) {
		return
	}
	kind, id := EventRecovery, *span
	*span = 0
	if !ok {
		kind, id = EventViolation, sys.bus.NewSpanID()
		*span = id
	}
	sys.recordSpan(kind, id, sys.lastFaultSpan, "%s", requirementDetail(z, req, ok, temp))
}

// measure samples every metric once.
func (sys *System) measure() {
	if sys.tempViolSpan == nil {
		sys.tempViolSpan = make([]uint64, sys.cfg.Zones)
		sys.freshViolSpan = make([]uint64, sys.cfg.Zones)
	}
	for z := 0; z < sys.cfg.Zones; z++ {
		// Ground-truth temperature requirement.
		temp, _ := sys.envm.Value(zoneID(z), env.Temperature)
		tempOK := temp >= tempLow && temp <= tempHigh
		sys.monitor(&sys.tempViolSpan[z], z, ReqTemperature, tempOK, temp)

		// Freshness at the active controller.
		ctrl, up := sys.controllerStack(z)
		freshOK := false
		var ctrlView dataView
		if up && ctrl != nil {
			ctrlView = ctrl.view
			_, freshOK = sys.freshAt(ctrl.view, zoneTempKey(z))
		}
		sys.monitor(&sys.freshViolSpan[z], z, ReqFreshness, freshOK, 0)

		// Pervasiveness: is any admissible collector alive and
		// reachable from the zone's first sensor?
		sensor := tempSensorID(z, 0)
		servable := false
		for _, c := range sys.servableCandidates(z) {
			if sys.world.NodeUp(c) && sys.world.Reachable(sensor, c) {
				servable = true
				break
			}
		}
		sys.servable.RecordOutcome(servable)

		// Data-flow vector: the application's intended consumers.
		dash := sys.gateways[(z+1)%sys.cfg.Zones]
		var dashView dataView
		if sys.world.NodeUp(dash.id) {
			dashView = dash.view
		}
		var cloudView dataView
		if sys.world.NodeUp(cloudID) {
			cloudView = sys.cloud.view
		}
		for _, consumer := range []dataView{ctrlView, cloudView, dashView} {
			age, fresh := sys.freshAt(consumer, zoneTempKey(z))
			sys.dataAvail.RecordOutcome(fresh)
			if fresh {
				sys.staleness.Record(age)
			}
		}
		// Sensitive occupancy: its intended consumers are the edge
		// dashboards inside the jurisdiction (never the cloud).
		home := sys.gateways[z]
		var homeView dataView
		if sys.world.NodeUp(home.id) {
			homeView = home.view
		}
		for _, consumer := range []dataView{homeView, dashView} {
			_, fresh := sys.freshAt(consumer, zoneOccKey(z))
			sys.dataAvail.RecordOutcome(fresh)
		}
	}
}

// report assembles the final Report. Its outcome numbers — R, MTTR,
// recoveries and unresolved violations — come from the journal alone
// (see Report.score).
func (sys *System) report() Report {
	end := sys.cfg.Duration
	r := Report{
		Archetype:          sys.arch,
		Pervasiveness:      sys.servable.Value(),
		InvocationSuccess:  sys.invocations.Value(),
		DataAvailability:   sys.dataAvail.Value(),
		StalenessP95:       sys.staleness.Percentile(95),
		PrivacyViolations:  sys.violationCount(),
		DesignChecksPassed: sys.designPassed,
		RuntimeChecks:      int(sys.runtimeChecks.Load()),
		RuntimeAlerts:      int(sys.runtimeAlerts.Load()),
	}
	r.Messages, r.Bytes = sys.world.Traffic()
	st := sys.SyncTraffic()
	r.SyncFrames = int(st.FramesSent)
	r.SyncEntries = int(st.EntriesSent)
	r.SyncBytes = int(st.BytesSent)
	r.SyncAcks = int(st.AcksIn)
	// Each requirement has two assurance slots (runtime monitor,
	// design-time verdict); coverage is the filled fraction.
	totalAssurance := 2 * 2 * sys.cfg.Zones
	r.ValidationCoverage = float64(sys.runtimeMonitored+sys.designChecked) / float64(totalAssurance)
	if r.ValidationCoverage > 1 {
		r.ValidationCoverage = 1
	}

	r.score(Outages(sys.journal, end), sys.cfg.Zones, end, sys.recoveryTimes())
	if sys.tempViolSpan == nil {
		// The horizon ended inside the warmup window: nothing was
		// sampled, so nothing persisted.
		r.GoalPersistence, r.TempPersistence = 0, 0
	}
	return r
}

// recoveryTimes extracts external repair instants from the fault log.
func (sys *System) recoveryTimes() []time.Duration {
	var out []time.Duration
	for _, ev := range sys.injector.Log() {
		switch ev.Kind {
		case fault.KindRecover, fault.KindPartitionEnd, fault.KindLinkRestore:
			out = append(out, ev.At)
		}
	}
	return out
}
