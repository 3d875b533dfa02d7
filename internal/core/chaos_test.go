package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
)

// chaosCfg builds a scenario driven by a rolling-crash campaign over
// the edge infrastructure: each gateway and cloudlet crashes after
// exponential up-times of mean mtbf and repairs after exponential
// down-times of mean repair (a second when that draws zero), each
// drawing from its own stream keyed by the target's name.
func chaosCfg(seed int64, mtbf, repair time.Duration) ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.Duration = 10 * time.Minute
	var targets []simnet.NodeID
	for i := 0; i < cfg.Cloudlets; i++ {
		targets = append(targets, cloudletID(i))
	}
	for z := 0; z < cfg.Zones; z++ {
		targets = append(targets, gatewayID(z))
	}
	exp := func(rng *rand.Rand, mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
	sched := &fault.Schedule{}
	for _, n := range targets {
		rng := rand.New(rand.NewSource(simnet.SubSeed(seed+100, "crash/"+string(n))))
		for t := exp(rng, mtbf); t < cfg.Duration; {
			down := exp(rng, repair)
			if down <= 0 {
				down = time.Second
			}
			sched.Crash(t, n, down)
			t += down + exp(rng, mtbf)
		}
	}
	cfg.Faults = sched
	return cfg
}

// TestML4ChaosInvariants runs random edge-crash campaigns at several
// seeds and checks the invariants that must hold regardless of the
// fault pattern.
func TestML4ChaosInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := chaosCfg(seed, 3*time.Minute, 30*time.Second)
			r := NewSystem(cfg, ML4).Run()

			// Invariant 1: the governed data plane never leaks,
			// whatever the fault pattern.
			if r.PrivacyViolations != 0 {
				t.Errorf("privacy violations under chaos: %d", r.PrivacyViolations)
			}
			// Invariant 2: validation machinery stays fully
			// instantiated.
			if r.ValidationCoverage != 1 {
				t.Errorf("validation coverage = %.2f", r.ValidationCoverage)
			}
			// Invariant 3: with the whole edge pool available for
			// migration, the system keeps controlling: persistence
			// must stay usefully high even under a rolling-crash
			// campaign.
			if r.TempPersistence < 0.8 {
				t.Errorf("temp persistence = %.3f under chaos", r.TempPersistence)
			}
			// Invariant 4: metrics are sane.
			if r.GoalPersistence < 0 || r.GoalPersistence > 1 ||
				r.Pervasiveness < 0 || r.Pervasiveness > 1 ||
				r.InvocationSuccess < 0 || r.InvocationSuccess > 1 ||
				r.DataAvailability < 0 || r.DataAvailability > 1 {
				t.Errorf("metric out of range: %+v", r)
			}
		})
	}
}

// TestChaosML4BeatsML1AcrossSeeds checks the headline ordering is not
// an artifact of one lucky schedule.
func TestChaosML4BeatsML1AcrossSeeds(t *testing.T) {
	wins := 0
	const runs = 3
	for seed := int64(10); seed < 10+runs; seed++ {
		cfg := chaosCfg(seed, 2*time.Minute, 45*time.Second)
		ml1 := NewSystem(cfg, ML1).Run()
		ml4 := NewSystem(cfg, ML4).Run()
		if ml4.GoalPersistence > ml1.GoalPersistence {
			wins++
		}
		t.Logf("seed %d: ML1 R=%.3f  ML4 R=%.3f", seed, ml1.GoalPersistence, ml4.GoalPersistence)
	}
	if wins != runs {
		t.Fatalf("ML4 won only %d of %d chaos runs", wins, runs)
	}
}

// TestHeavyPresetStillOrdered runs the heavy preset end to end.
func TestHeavyPresetStillOrdered(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Duration = 8 * time.Minute
	cfg.Preset = FaultsHeavy
	ml1 := NewSystem(cfg, ML1).Run()
	ml4 := NewSystem(cfg, ML4).Run()
	if ml4.GoalPersistence <= ml1.GoalPersistence {
		t.Fatalf("heavy preset: ML4 R=%.3f not above ML1 R=%.3f", ml4.GoalPersistence, ml1.GoalPersistence)
	}
	if ml4.PrivacyViolations != 0 {
		t.Fatalf("heavy preset: ML4 leaked %d", ml4.PrivacyViolations)
	}
}

// TestActuatorWatchdogBoundsRunaway pins the device-local failsafe: a
// controller partitioned away from its actuator must not leave cooling
// running indefinitely.
func TestActuatorWatchdogBoundsRunaway(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Duration = 8 * time.Minute
	cfg.Zones = 1
	// Isolate the zone's actuator for 90 seconds, starting while
	// cooling is likely engaged.
	sched := &fault.Schedule{}
	island := []simnet.NodeID{actuatorID(0)}
	sched.Partition(2*time.Minute, 90*time.Second, island)
	cfg.Faults = sched
	r := NewSystem(cfg, ML1).Run()
	// With the watchdog, the only damage is ~20s of uncontrolled
	// ambient heating near the end of the partition (R ≈ 0.9). Without
	// it, 90s of runaway cooling drives the zone to ~0°C and the
	// drift-only recovery to the 18° band edge takes ~5 further
	// minutes (R ≈ 0.3).
	if r.TempPersistence < 0.8 {
		t.Fatalf("temp persistence = %.3f — runaway actuator not bounded", r.TempPersistence)
	}
}
