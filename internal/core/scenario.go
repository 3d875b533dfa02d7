package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
)

// FaultPreset selects a canned disruption schedule.
type FaultPreset int

// Canned disruption schedules.
const (
	// FaultsStandard is the Table 1/2 schedule: a cloud-WAN outage, a
	// gateway crash, a combined gateway+backup crash, an edge
	// partition and a cloud restart, spread over the run.
	FaultsStandard FaultPreset = iota + 1
	// FaultsNone disables disruption (calibration runs).
	FaultsNone
	// FaultsHeavy doubles the standard schedule's outage durations.
	FaultsHeavy
)

// The zone climate every tier shares: temperature starts at tempInit,
// inside the requirement band [tempLow, tempHigh], and moves with
// Brownian noise of envNoise per √s and heat shocks of shockMag. The
// rates that scale with a tier's intervals are ScenarioConfig fields.
const (
	tempInit = 21.0
	tempLow  = 18.0
	tempHigh = 26.0
	envNoise = 0.03
	shockMag = 3.0
)

// ScenarioConfig describes the smart-city workload every archetype
// runs: zones with drifting/shocked temperature controlled through
// cooling actuators, plus a sensitive occupancy stream per zone. Zero
// fields take defaults (see DefaultScenario). How the ML4 edge group
// peers is not a field: it follows from the group's size (edgeFanout).
type ScenarioConfig struct {
	Seed  int64
	Zones int
	// TempSensorsPerZone is the number of redundant temperature
	// sensors per zone.
	TempSensorsPerZone int
	// Cloudlets is the number of shared edge cloudlets.
	Cloudlets int

	Duration        time.Duration
	SampleInterval  time.Duration // sensor reporting period
	ControlInterval time.Duration // controller decision period
	EnvStep         time.Duration // environment integration step

	Drift     float64 // ambient heating, units/s
	ShockProb float64 // heat-shock probability per env step
	CoolRate  float64 // actuator effect, units/s (negative)

	Preset FaultPreset
	// Faults overrides the preset with a custom schedule.
	Faults *fault.Schedule

	// BoltOnResilience hardens the ML2 archetype with the traditional
	// add-on mechanisms the paper argues are insufficient (§III):
	// QoS-1 publishes with retry, aggressive re-subscription after
	// broker restarts. Used by the A1 ablation; ignored by other
	// archetypes.
	BoltOnResilience bool
	// ML4Ablation disables one native mechanism of the ML4 archetype
	// for the A2 ablation: "no-failover" pins sensors to their home
	// gateway, "no-replan" freezes controller placements after the
	// initial assignment, "no-sync" removes CRDT peer synchronization
	// between stores. Empty means the full architecture.
	ML4Ablation string
	// ML4SyncInterval overrides the ML4 data plane's anti-entropy
	// period (default: SampleInterval). The X2 experiment sweeps it to
	// trade traffic against freshness.
	ML4SyncInterval time.Duration

	// BackupActuators adds that many standby actuators per zone to the
	// topology. The ML4 actuation path fails over to the first
	// gossip-alive candidate when the primary dies; other archetypes
	// keep commanding only the primary (the maturity gap under test).
	// Hardened() sets it to 1.
	BackupActuators int
	// hardened switches on the resilience profile (DESIGN.md §9):
	// island-mode degraded operation, 2-way partition-aware placement
	// spread and sticky reporter failback. Only Hardened() sets it, so
	// the default world — every pinned journal and the chaos corpus
	// replay contract — stays bit-identical.
	hardened bool

	// Shards is the number of simnet shard lanes (DESIGN.md §11) and
	// thereby the journal family. Zero runs the whole simulation on
	// one lane with one shared random stream and a global event
	// counter — the family every pinned hash, the chaos corpus and the
	// bench baselines belong to. Shards ≥ 1 block-partitions the zones
	// across that many lanes advancing in conservative lookahead
	// windows, with per-node streams (16 bytes of PCG state each, held
	// in the node) and shard-count-invariant logical event keys — so
	// the JournalHash is byte-identical at any
	// Shards ≥ 1 (Shards = 1 is the serial reference leg) but differs
	// from the zero-lane family. Not defaulted by withDefaults.
	Shards int
}

// Hardened returns a copy of the config with the resilience profile on
// (DESIGN.md §9): an ML4 edge node that has lost Raft quorum contact
// for 3 × ControlInterval runs its zones from locally cached state
// until quorum contact returns (island mode); each zone controller gets
// a backup replica off the zone's gateway (placement spread); each zone
// gets one standby actuator; and sensor reporters return to the last
// node that acked them rather than walk the candidate list from their
// home gateway (sticky failback). This is the one way to get the
// profile, and the one `riotchaos verify` replays the corpus against.
func (c ScenarioConfig) Hardened() ScenarioConfig {
	c.hardened = true
	c.BackupActuators = 1
	return c
}

// Validate reports the first setting no run can honour: a scenario
// needs at least one zone and a positive duration, and cannot have a
// negative number of sensors or cloudlets. The error names the setting
// as the command-line flags and corpus files spell it. Check a config
// as given, before zero fields take their defaults.
func (c ScenarioConfig) Validate() error {
	switch {
	case c.Zones < 1:
		return fmt.Errorf("zones %d: must be 1 or more", c.Zones)
	case c.Duration <= 0:
		return fmt.Errorf("duration %v: must be positive", c.Duration)
	case c.TempSensorsPerZone < 0:
		return fmt.Errorf("temp_sensors_per_zone %d: must be 0 or more", c.TempSensorsPerZone)
	case c.Cloudlets < 0:
		return fmt.Errorf("cloudlets %d: must be 0 or more", c.Cloudlets)
	}
	return nil
}

// DefaultScenario returns the configuration used by the Table 1/2
// experiment.
func DefaultScenario() ScenarioConfig {
	return ScenarioConfig{
		Seed:               1,
		Zones:              4,
		TempSensorsPerZone: 2,
		Cloudlets:          2,
		Duration:           20 * time.Minute,
		SampleInterval:     2 * time.Second,
		ControlInterval:    2 * time.Second,
		EnvStep:            time.Second,
		Drift:              0.06,
		ShockProb:          0.002,
		CoolRate:           -0.3,
		Preset:             FaultsStandard,
	}
}

// CityScenario returns the Figure-1-scale configuration: a city-wide
// deployment of 5009 devices — 200 zones × (22 temperature sensors +
// occupancy sensor + actuator) plus 200 gateways, 8 cloudlets and the
// cloud — under the same disruption vectors as the paper-scale run.
// Intervals are stretched and the run shortened so a full maturity
// matrix stays a benchmark, not a batch job, and the physics rates are
// rescaled so each control decision moves the temperature by the same
// amount as at paper scale (rate × interval is what the hysteresis
// band sees; stretching the interval without rescaling the rates makes
// every archetype overshoot the band and measures the config, not the
// architecture). The freshness window, 4 × SampleInterval = 20 s, sits
// comfortably above the two-hop sync latency of relayed data (≤10 s)
// yet far below the heavy schedule's 48–72 s outages — the
// discrimination between archetypes lives in that inequality.
// Its 208-node ML4 edge group peers over a bounded ring with 500 ms
// Raft heartbeats, as every edge group past six nodes does.
func CityScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Zones = 200
	cfg.TempSensorsPerZone = 22
	cfg.Cloudlets = 8
	cfg.Duration = 4 * time.Minute
	cfg.SampleInterval = 5 * time.Second
	cfg.ControlInterval = 5 * time.Second
	cfg.EnvStep = 5 * time.Second
	cfg.Drift = 0.024      // +0.12 per 5 s decision, as at paper scale
	cfg.CoolRate = -0.12   // −0.6 per 5 s decision, as at paper scale
	cfg.ShockProb = 0.0005 // ~5 shocks per run city-wide, as at paper scale
	cfg.Preset = FaultsHeavy
	return cfg
}

// CityScenarioSmoke returns the reduced city tier the CI smoke job
// runs: the same stretched intervals and bounded ring, scaled down to
// finish a four-archetype matrix in seconds.
func CityScenarioSmoke() ScenarioConfig {
	cfg := CityScenario()
	cfg.Zones = 40
	cfg.TempSensorsPerZone = 6
	cfg.Cloudlets = 4
	cfg.Duration = 3 * time.Minute
	return cfg
}

// MetropolisScenario returns the metropolis tier: 1000 zones × 102
// devices ≈ 102k simulated devices (100 temperature sensors + occupancy
// sensor + actuator + gateway per zone, 16 cloudlets, one cloud) — two
// orders of magnitude past paper scale, the ~100k rung on the way to
// the 1M-device target (reach it by raising Zones to 10000 via the
// -zones flag). Zones stay at 1000 and density carries the device
// count: per-device work is linear, but gossip membership, replanning
// and placement all grow with the gateway count, so zones are the
// axis that turns quadratic at this scale. The tier exists to exercise
// the sharded scheduler: zone-local traffic dominates, so wall clock
// scales with cores (EXPERIMENTS.md records the curve). Intervals
// stretch further than the city tier so the event count stays a
// benchmark, and the fault preset is the standard schedule — the tier
// measures throughput, not archetype discrimination (the city tier
// does that).
func MetropolisScenario() ScenarioConfig {
	cfg := CityScenario()
	cfg.Zones = 1000
	cfg.TempSensorsPerZone = 100
	cfg.Cloudlets = 16
	cfg.Duration = 2 * time.Minute
	cfg.SampleInterval = 10 * time.Second
	cfg.ControlInterval = 10 * time.Second
	cfg.EnvStep = 10 * time.Second
	cfg.Drift = 0.012        // +0.12 per 10 s decision, as at paper scale
	cfg.CoolRate = -0.06     // −0.6 per 10 s decision, as at paper scale
	cfg.ShockProb = 0.000025 // ~5 shocks per run metropolis-wide
	cfg.Preset = FaultsStandard
	return cfg
}

// MetropolisScenarioSmoke returns the reduced metropolis tier the CI
// smoke job runs: the full ~100k-device tier shortened so one ML1 run
// finishes in CI seconds.
func MetropolisScenarioSmoke() ScenarioConfig {
	cfg := MetropolisScenario()
	cfg.Duration = time.Minute
	return cfg
}

// ParseTier resolves a scenario tier by name, case-insensitively:
// default, city, city-smoke, metro or metro-smoke.
func ParseTier(name string) (ScenarioConfig, error) {
	switch strings.ToLower(name) {
	case "default":
		return DefaultScenario(), nil
	case "city":
		return CityScenario(), nil
	case "city-smoke":
		return CityScenarioSmoke(), nil
	case "metro":
		return MetropolisScenario(), nil
	case "metro-smoke":
		return MetropolisScenarioSmoke(), nil
	}
	return ScenarioConfig{}, fmt.Errorf("unknown tier %q (want default, city, city-smoke, metro or metro-smoke)", name)
}

// withDefaults fills zero fields from DefaultScenario.
func (c ScenarioConfig) withDefaults() ScenarioConfig {
	d := DefaultScenario()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Zones == 0 {
		c.Zones = d.Zones
	}
	if c.TempSensorsPerZone == 0 {
		c.TempSensorsPerZone = d.TempSensorsPerZone
	}
	if c.Cloudlets == 0 {
		c.Cloudlets = d.Cloudlets
	}
	if c.Duration == 0 {
		c.Duration = d.Duration
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = d.SampleInterval
	}
	if c.ControlInterval == 0 {
		c.ControlInterval = d.ControlInterval
	}
	if c.EnvStep == 0 {
		c.EnvStep = d.EnvStep
	}
	if c.Drift == 0 {
		c.Drift = d.Drift
	}
	if c.ShockProb == 0 {
		c.ShockProb = d.ShockProb
	}
	if c.CoolRate == 0 {
		c.CoolRate = d.CoolRate
	}
	if c.Preset == 0 {
		c.Preset = d.Preset
	}
	return c
}

// Node naming helpers shared by the archetypes and experiments.

func gatewayID(zone int) simnet.NodeID {
	return simnet.NodeID(fmt.Sprintf("gw-%d", zone))
}

func cloudletID(i int) simnet.NodeID {
	return simnet.NodeID(fmt.Sprintf("cl-%d", i))
}

func tempSensorID(zone, i int) simnet.NodeID {
	if i == 0 && zone >= 0 && zone < keyTableSize {
		return tempSensor0[zone]
	}
	return simnet.NodeID(fmt.Sprintf("z%d-s%d", zone, i))
}

func occSensorID(zone int) simnet.NodeID {
	return simnet.NodeID(fmt.Sprintf("z%d-occ", zone))
}

func actuatorID(zone int) simnet.NodeID {
	return simnet.NodeID(fmt.Sprintf("z%d-act", zone))
}

func backupActuatorID(zone, i int) simnet.NodeID {
	return simnet.NodeID(fmt.Sprintf("z%d-act-b%d", zone, i))
}

// cloudID is the single cloud node.
const cloudID = simnet.NodeID("cloud")

// standardFaults builds the preset disruption schedule, expressed as
// fractions of the run so it scales with Duration.
func standardFaults(cfg ScenarioConfig, heavy bool) *fault.Schedule {
	T := cfg.Duration
	frac := func(f float64) time.Duration { return time.Duration(f * float64(T)) }
	scale := 1.0
	if heavy {
		scale = 2.0
	}
	dur := func(f float64) time.Duration { return time.Duration(f * scale * float64(T)) }

	s := &fault.Schedule{}
	// 1) Cloud WAN outage: all traffic to/from the cloud dies. Every
	// device's uplink is cut and restored, which is all but a dozen of
	// the schedule's events.
	s.Grow(2*(cfg.Zones*(cfg.TempSensorsPerZone+3)+cfg.Cloudlets) + 12)
	for z := 0; z < cfg.Zones; z++ {
		s.CutLink(frac(0.10), dur(0.15), gatewayID(z), cloudID)
		for i := 0; i < cfg.TempSensorsPerZone; i++ {
			s.CutLink(frac(0.10), dur(0.15), tempSensorID(z, i), cloudID)
		}
		s.CutLink(frac(0.10), dur(0.15), occSensorID(z), cloudID)
		s.CutLink(frac(0.10), dur(0.15), actuatorID(z), cloudID)
	}
	for i := 0; i < cfg.Cloudlets; i++ {
		s.CutLink(frac(0.10), dur(0.15), cloudletID(i), cloudID)
	}
	// 2) Gateway of zone 0 crashes.
	s.Crash(frac(0.30), gatewayID(0), dur(0.12))
	// 3) Gateway of zone 1 AND its statically designated ML3 backup
	//    cloudlet crash together.
	s.Crash(frac(0.50), gatewayID(1), dur(0.12))
	s.Crash(frac(0.50), cloudletID(1%cfg.Cloudlets), dur(0.12))
	// 4) Partition: zone 2's infrastructure is severed from the rest
	//    of the edge (and the cloud).
	if cfg.Zones > 2 {
		island := []simnet.NodeID{gatewayID(2), actuatorID(2), occSensorID(2)}
		for i := 0; i < cfg.TempSensorsPerZone; i++ {
			island = append(island, tempSensorID(2, i))
		}
		s.Partition(frac(0.70), dur(0.10), island)
	}
	// 5) Cloud node restarts (brokers lose volatile state).
	s.Crash(frac(0.85), cloudID, dur(0.05))
	return s
}

// buildFaults resolves the schedule for a config.
func buildFaults(cfg ScenarioConfig) *fault.Schedule {
	if cfg.Faults != nil {
		return cfg.Faults
	}
	switch cfg.Preset {
	case FaultsNone:
		return &fault.Schedule{}
	case FaultsHeavy:
		return standardFaults(cfg, true)
	default:
		return standardFaults(cfg, false)
	}
}
