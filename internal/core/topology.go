package core

import "repro/internal/simnet"

// Topology lists the node IDs a scenario config instantiates, grouped
// by role. It lets tooling outside the package — the chaos-search
// generator above all — aim disruptions at infrastructure or device
// nodes without reaching into archetype wiring, and stays in lockstep
// with buildWorld by construction (both derive from the same naming
// helpers and counts).
type Topology struct {
	Gateways  []simnet.NodeID
	Cloudlets []simnet.NodeID
	// Sensors holds the temperature sensors then the occupancy sensor
	// of each zone; Actuators the primary HVAC rig of each zone
	// followed by its ScenarioConfig.BackupActuators standby rigs.
	Sensors   []simnet.NodeID
	Actuators []simnet.NodeID
	Cloud     simnet.NodeID
}

// TopologyOf derives the topology the config will build (after
// defaulting, so a zero config matches DefaultScenario).
func TopologyOf(cfg ScenarioConfig) Topology {
	cfg = cfg.withDefaults()
	var t Topology
	for z := 0; z < cfg.Zones; z++ {
		t.Gateways = append(t.Gateways, gatewayID(z))
		for i := 0; i < cfg.TempSensorsPerZone; i++ {
			t.Sensors = append(t.Sensors, tempSensorID(z, i))
		}
		t.Sensors = append(t.Sensors, occSensorID(z))
		t.Actuators = append(t.Actuators, actuatorID(z))
		for b := 0; b < cfg.BackupActuators; b++ {
			t.Actuators = append(t.Actuators, backupActuatorID(z, b))
		}
	}
	for i := 0; i < cfg.Cloudlets; i++ {
		t.Cloudlets = append(t.Cloudlets, cloudletID(i))
	}
	t.Cloud = cloudID
	return t
}

// Infrastructure returns gateways, cloudlets and the cloud — the nodes
// whose loss the archetypes are supposed to survive.
func (t Topology) Infrastructure() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(t.Gateways)+len(t.Cloudlets)+1)
	out = append(out, t.Gateways...)
	out = append(out, t.Cloudlets...)
	return append(out, t.Cloud)
}

// All returns every node of the topology.
func (t Topology) All() []simnet.NodeID {
	out := make([]simnet.NodeID, 0,
		len(t.Gateways)+len(t.Cloudlets)+len(t.Sensors)+len(t.Actuators)+1)
	out = append(out, t.Gateways...)
	out = append(out, t.Cloudlets...)
	out = append(out, t.Sensors...)
	out = append(out, t.Actuators...)
	return append(out, t.Cloud)
}
