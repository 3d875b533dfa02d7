package core

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
	"repro/internal/space"
)

func TestServableCandidatesPerArchetype(t *testing.T) {
	cfg := quickCfg(FaultsNone)
	tests := []struct {
		arch Archetype
		zone int
		want []simnet.NodeID
	}{
		{ML1, 0, []simnet.NodeID{"gw-0"}},
		{ML2, 1, []simnet.NodeID{"cloud"}},
		{ML3, 1, []simnet.NodeID{"gw-1", "cl-1"}},
		{ML3, 2, []simnet.NodeID{"gw-2", "cl-0"}},
	}
	for _, tt := range tests {
		sys := NewSystem(cfg, tt.arch)
		got := sys.servableCandidates(tt.zone)
		if len(got) != len(tt.want) {
			t.Fatalf("%v zone %d: candidates = %v, want %v", tt.arch, tt.zone, got, tt.want)
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Fatalf("%v zone %d: candidates = %v, want %v", tt.arch, tt.zone, got, tt.want)
			}
		}
	}
	// ML4: all edge nodes.
	sys := NewSystem(cfg, ML4)
	if got := sys.servableCandidates(0); len(got) != cfg.Zones+cfg.Cloudlets {
		t.Fatalf("ML4 candidates = %v", got)
	}
}

func TestControllerStackFollowsLiveness(t *testing.T) {
	cfg := quickCfg(FaultsNone)

	// ML1: the home gateway, or nothing.
	sys := NewSystem(cfg, ML1)
	st, up := sys.controllerStack(0)
	if !up || st.id != "gw-0" {
		t.Fatalf("ML1 controller = %v/%v", st.id, up)
	}
	sys.sim.SetDown("gw-0", true)
	if _, up := sys.controllerStack(0); up {
		t.Fatal("ML1 controller up with gateway down")
	}

	// ML3: fail over to the designated backup.
	sys3 := NewSystem(cfg, ML3)
	sys3.sim.SetDown("gw-0", true)
	st3, up3 := sys3.controllerStack(0)
	if !up3 || st3.id != sys3.backupFor(0).id {
		t.Fatalf("ML3 fallback = %v/%v", st3.id, up3)
	}

	// ML2: the cloud.
	sys2 := NewSystem(cfg, ML2)
	st2, _ := sys2.controllerStack(3)
	if st2.id != cloudID {
		t.Fatalf("ML2 controller = %v", st2.id)
	}
	sys2.sim.SetDown(cloudID, true)
	if _, up := sys2.controllerStack(3); up {
		t.Fatal("ML2 controller up with cloud down")
	}

	// ML4 before any placement: nothing controls.
	sys4 := NewSystem(cfg, ML4)
	if _, up := sys4.controllerStack(0); up {
		t.Fatal("ML4 controller up before raft placement")
	}
	sys4.sim.RunUntil(30 * time.Second)
	st4, up4 := sys4.controllerStack(0)
	if !up4 {
		t.Fatal("ML4 controller missing after placement")
	}
	if st4.id != "gw-0" {
		t.Fatalf("ML4 placed zone 0 on %v, expected the in-zone gateway", st4.id)
	}
}

func TestDeviceOfFindsEveryKind(t *testing.T) {
	sys := NewSystem(quickCfg(FaultsNone), ML1)
	for _, id := range []simnet.NodeID{"z0-s0", "z0-occ", "z0-act", "gw-0", "cl-0", "cloud"} {
		if sys.deviceOf(id) == nil {
			t.Fatalf("deviceOf(%s) = nil", id)
		}
	}
	if sys.deviceOf("ghost") != nil {
		t.Fatal("deviceOf(ghost) found something")
	}
}

func TestOnFaultModelEvents(t *testing.T) {
	sys := NewSystem(quickCfg(FaultsNone), ML1)

	// Domain transfer moves the node's placement.
	sys.onFault(fault.Event{Kind: fault.KindDomainTransfer, Node: "gw-0", Detail: "cloudprov"})
	pl, _ := sys.spaces.PlacementOf("gw-0")
	if pl.Domain != space.DomainID("cloudprov") {
		t.Fatalf("domain = %v", pl.Domain)
	}

	// Stack upgrade bumps the device's software version.
	before := sys.deviceOf("gw-0").Stack().Version
	sys.onFault(fault.Event{Kind: fault.KindStackUpgrade, Node: "gw-0"})
	if sys.deviceOf("gw-0").Stack().Version != before+1 {
		t.Fatal("stack not upgraded")
	}

	// Battery drain exhausts a battery-powered device.
	sys.onFault(fault.Event{Kind: fault.KindBatteryDrain, Node: "z0-s0"})
	if !sys.deviceOf("z0-s0").Drained() {
		t.Fatal("sensor not drained")
	}
	// Mains devices are immune.
	sys.onFault(fault.Event{Kind: fault.KindBatteryDrain, Node: "gw-0"})
	if sys.deviceOf("gw-0").Drained() {
		t.Fatal("mains device drained")
	}

	// Unknown node: no panic.
	sys.onFault(fault.Event{Kind: fault.KindStackUpgrade, Node: "ghost"})
}

func TestAttributeOutages(t *testing.T) {
	// One outage ending right after an external recovery → manual;
	// one ending with no recovery nearby → auto; an unresolved one is
	// neither.
	outages := Outages([]RunEvent{
		{At: 50 * time.Second, Kind: EventViolation, Detail: "zone 0 temperature out of band (27.0°)"},
		{At: 100 * time.Second, Kind: EventRecovery, Detail: "zone 0 temperature back in band (25.9°)"},
		{At: 200 * time.Second, Kind: EventViolation, Detail: "zone 0 temperature out of band (27.0°)"},
		{At: 300 * time.Second, Kind: EventRecovery, Detail: "zone 0 temperature back in band (25.9°)"},
		{At: 400 * time.Second, Kind: EventViolation, Detail: "zone 0 temperature out of band (27.0°)"},
	}, 500*time.Second)
	recoveries := []time.Duration{95 * time.Second} // outage 1 ends at 100s
	manual, auto := attributeOutages(outages, recoveries)
	if manual != 1 || auto != 1 {
		t.Fatalf("manual=%d auto=%d, want 1/1", manual, auto)
	}
	// No recoveries at all → everything auto.
	m2, a2 := attributeOutages(outages, nil)
	if m2 != 0 || a2 != 2 {
		t.Fatalf("manual=%d auto=%d, want 0/2", m2, a2)
	}
}
