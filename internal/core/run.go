package core

import (
	"time"

	"repro/internal/env"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simnet"
)

// coolDownWindow is the physical settling time after a repair: an
// outage that ends within this window after an external recovery event
// is attributed to the repair (a manual intervention), not to the
// architecture's own adaptation.
const coolDownWindow = 90 * time.Second

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
		if !sys.ml4Hardened() {
			for _, st := range sys.edgeStacks() {
				if st.applied[z] == st.id && sys.world.NodeUp(st.id) {
					return st, true
				}
			}
			return nil, false
		}
		// Hardened claim resolution: several stacks may claim a zone
		// during a partition (an islanded node and the quorum side both
		// believe they control it). The zone's effective controller is
		// the first claimant actually holding fresh data — the only one
		// whose control tick can act — falling back to the first bare
		// claimant when nobody has data.
		var first *edgeStack
		for _, st := range sys.edgeStacks() {
			if !sys.world.NodeUp(st.id) || !sys.ml4Controls(st, z) {
				continue
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

// measure samples every metric once.
func (sys *System) measure() {
	now := sys.world.Now()
	if sys.prevTempOK == nil {
		sys.prevTempOK = make([]bool, sys.cfg.Zones)
		sys.prevFresh = make([]bool, sys.cfg.Zones)
		sys.tempViolSpan = make([]uint64, sys.cfg.Zones)
		sys.freshViolSpan = make([]uint64, sys.cfg.Zones)
		for z := range sys.prevTempOK {
			sys.prevTempOK[z] = true
			sys.prevFresh[z] = true
		}
	}
	sat := make(map[model.RequirementID]bool, 2*sys.cfg.Zones)
	for z := 0; z < sys.cfg.Zones; z++ {
		// Ground-truth temperature requirement.
		temp, _ := sys.envm.Value(zoneID(z), env.Temperature)
		tempOK := temp >= sys.cfg.TempLow && temp <= sys.cfg.TempHigh
		sys.tempTrace[z].Record(now, tempOK)
		sat[sys.reqTemp[z]] = tempOK
		if tempOK != sys.prevTempOK[z] {
			if tempOK {
				sys.recordSpan(EventRecovery, sys.tempViolSpan[z], sys.lastFaultSpan,
					"zone %d temperature back in band (%.1f°)", z, temp)
				sys.tempViolSpan[z] = 0
			} else {
				sys.tempViolSpan[z] = sys.bus.NewSpanID()
				sys.recordSpan(EventViolation, sys.tempViolSpan[z], sys.lastFaultSpan,
					"zone %d temperature out of band (%.1f°)", z, temp)
			}
			sys.prevTempOK[z] = tempOK
		}

		// Freshness at the active controller.
		ctrl, up := sys.controllerStack(z)
		freshOK := false
		var ctrlView dataView
		if up && ctrl != nil {
			ctrlView = ctrl.view
			_, freshOK = sys.freshAt(ctrl.view, zoneTempKey(z))
		}
		sys.freshTrace[z].Record(now, freshOK)
		sat[sys.reqFresh[z]] = freshOK
		if freshOK != sys.prevFresh[z] {
			if freshOK {
				sys.recordSpan(EventRecovery, sys.freshViolSpan[z], sys.lastFaultSpan,
					"zone %d data fresh at controller again", z)
				sys.freshViolSpan[z] = 0
			} else {
				sys.freshViolSpan[z] = sys.bus.NewSpanID()
				sys.recordSpan(EventViolation, sys.freshViolSpan[z], sys.lastFaultSpan,
					"zone %d data stale at controller", z)
			}
			sys.prevFresh[z] = freshOK
		}

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
	sys.goalTrace.Record(now, sys.goal.Satisfied(sat))
}

// report assembles the final Report, including the manual-intervention
// attribution against the fault log.
func (sys *System) report() Report {
	end := sys.cfg.Duration
	r := Report{
		Archetype:          sys.arch,
		GoalPersistence:    sys.goalTrace.TimeWeightedPersistence(end),
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

	// Requirements still violated at the final sample never recovered
	// within the run (prev slices are nil only if measurement never
	// started, i.e. the horizon ended inside the warmup window).
	if sys.prevTempOK != nil {
		for z := 0; z < sys.cfg.Zones; z++ {
			if !sys.prevTempOK[z] {
				r.UnresolvedViolations++
			}
			if !sys.prevFresh[z] {
				r.UnresolvedViolations++
			}
		}
	}

	var persistSum float64
	var mttrSum time.Duration
	mttrCount := 0
	recoveries := sys.recoveryTimes()
	for z := 0; z < sys.cfg.Zones; z++ {
		persistSum += sys.tempTrace[z].TimeWeightedPersistence(end)
		if m := sys.tempTrace[z].MTTR(); m > 0 {
			mttrSum += m
			mttrCount++
		}
		manual, auto := attributeOutages(sys.tempTrace[z], recoveries)
		r.ManualInterventions += manual
		r.AutoRecoveries += auto
	}
	r.TempPersistence = persistSum / float64(sys.cfg.Zones)
	if mttrCount > 0 {
		r.MTTR = mttrSum / time.Duration(mttrCount)
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

// attributeOutages classifies each completed outage of a trace as
// manually resolved (its end follows an external repair within the
// settling window) or automatically resolved by the architecture.
func attributeOutages(tr *metrics.SatisfactionTrace, recoveries []time.Duration) (manual, auto int) {
	for _, end := range tr.OutageEnds() {
		isManual := false
		for _, rec := range recoveries {
			if end >= rec && end-rec <= coolDownWindow {
				isManual = true
				break
			}
		}
		if isManual {
			manual++
		} else {
			auto++
		}
	}
	return manual, auto
}
