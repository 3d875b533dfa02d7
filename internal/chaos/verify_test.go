package chaos

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// corpusConfig mirrors the committed corpus pins: default scenario,
// seed 1, the default persistence floor.
func corpusConfig(arch core.Archetype) Config {
	sc := core.DefaultScenario()
	sc.Duration = 6 * time.Minute
	return Config{Scenario: sc, Archetype: arch}
}

// deviceSidePartition reproduces the corpus's device-side island shape
// (ml4-low-persistence-a7d01ef6): the cloud, both cloudlets and two
// gateways split away, stranding the remaining gateways with every
// sensor and actuator — a no-quorum island that must keep controlling
// its zones.
func deviceSidePartition(sc core.ScenarioConfig) *fault.Schedule {
	topo := core.TopologyOf(sc)
	quorumSide := []simnet.NodeID{topo.Cloud, topo.Cloudlets[0], topo.Cloudlets[1],
		topo.Gateways[1], topo.Gateways[2]}
	island := remainder(topo.All(), quorumSide)
	s := &fault.Schedule{}
	s.Partition(76*time.Second, 0, quorumSide, island)
	return s
}

// TestHardenedML4FixesDeviceSidePartition is the tentpole acceptance
// pinned as a go test: the unrepaired device-side partition that drops
// default ML4 far below the floor must pass outright once the island
// mechanisms are on, with R at least 0.60 above the recorded ~0.18.
func TestHardenedML4FixesDeviceSidePartition(t *testing.T) {
	cfg := corpusConfig(core.ML4)
	s := deviceSidePartition(cfg.Scenario)

	if v := NewOracle(cfg).Run(s); !v.Failed() {
		t.Fatalf("default ML4 survives the device-side partition; the counterexample is stale: %s", v)
	}
	hard := cfg
	hard.Scenario = hard.Scenario.Hardened()
	v := NewOracle(hard).Run(s)
	if v.Failed() {
		t.Fatalf("hardened ML4 still fails the device-side partition: %s", v)
	}
	if v.Report.GoalPersistence < 0.60 {
		t.Fatalf("hardened R(goal) = %.3f, want >= 0.60", v.Report.GoalPersistence)
	}
}

// TestHardenedBackupActuatorMaturityOrdering pins the actuator-loss
// pair: an unrepaired z0-act crash is fixed by the hardened ML4 (the
// planner fails actuation over to the gossip-detected backup) but must
// keep failing on hardened ML1, whose static loop never commands a
// backup — the Table 1 vs Table 2 maturity ordering.
func TestHardenedBackupActuatorMaturityOrdering(t *testing.T) {
	s := (&fault.Schedule{}).Crash(217*time.Second, "z0-act", 0)

	hard4 := corpusConfig(core.ML4)
	hard4.Scenario = hard4.Scenario.Hardened()
	if v := NewOracle(hard4).Run(s); v.Failed() {
		t.Fatalf("hardened ML4 loses its zone to an actuator crash: %s", v)
	}
	hard1 := corpusConfig(core.ML1)
	hard1.Scenario = hard1.Scenario.Hardened()
	if v := NewOracle(hard1).Run(s); !v.Failed() {
		t.Fatal("hardened ML1 survived an unrepaired actuator crash; the maturity ordering collapsed")
	}
}

// TestHardenedRunDeterministic re-runs the hardened island scenario and
// requires bit-identical journals: the resilience path must honor the
// same determinism contract as the default one.
func TestHardenedRunDeterministic(t *testing.T) {
	cfg := corpusConfig(core.ML4)
	cfg.Scenario = cfg.Scenario.Hardened()
	s := deviceSidePartition(cfg.Scenario)
	o := NewOracle(cfg)
	v1, v2 := o.Run(s), o.Run(s)
	if v1.JournalHash != v2.JournalHash {
		t.Fatalf("hardened runs diverge: %s vs %s", v1.JournalHash, v2.JournalHash)
	}
}

// TestVerifyAllWorkerCountInvariance runs the same synthetic corpus
// serially and with 4 workers: statuses and persistence values must not
// depend on parallelism.
func TestVerifyAllWorkerCountInvariance(t *testing.T) {
	cfg := corpusConfig(core.ML4)
	o := NewOracle(cfg)
	s := deviceSidePartition(cfg.Scenario)
	v := o.Run(s)
	if !v.Failed() {
		t.Fatal("seed schedule passes")
	}
	ce := NewCounterexample(cfg, Shrink(o, s, v, 0))
	ce.Expect = ExpectFixed
	ces := []*Counterexample{ce}

	serial, err := VerifyAllObserved(ces, 1, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := VerifyAllObserved(ces, 4, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if serial[0].Status != wide[0].Status || serial[0].R != wide[0].R {
		t.Fatalf("verify diverges across worker counts: %+v vs %+v", serial[0], wide[0])
	}
	if serial[0].Status != ExpectFixed {
		t.Fatalf("shrunken island counterexample not fixed: %+v", serial[0])
	}
}

// TestVerifyReportsExpectationMismatch declares a still-broken entry as
// fixed and requires Verify to flag the lie.
func TestVerifyReportsExpectationMismatch(t *testing.T) {
	cfg := corpusConfig(core.ML1)
	o := NewOracle(cfg)
	topo := core.TopologyOf(cfg.Scenario)
	s := (&fault.Schedule{}).Crash(time.Minute, topo.Gateways[0], 0)
	v := o.Run(s)
	if !v.Failed() {
		t.Fatal("seed schedule passes")
	}
	ce := NewCounterexample(cfg, Shrink(o, s, v, 0))
	ce.Expect = ExpectFixed // hardened ML1 cannot fix a dead gateway
	res := ce.Verify(VerifyOptions{})
	if res.Err == nil || res.Status != ExpectStillFails {
		t.Fatalf("mismatch not reported: %+v", res)
	}
	if _, err := VerifyAllObserved([]*Counterexample{ce}, 2, VerifyOptions{}); err == nil {
		t.Fatal("VerifyAllObserved swallowed the mismatch")
	}
}
