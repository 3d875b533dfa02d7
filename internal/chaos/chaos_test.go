package chaos

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// testConfig is a short ML1 scenario: fast to simulate, and fragile
// enough (no failover) that injected faults reliably violate.
func testConfig(arch core.Archetype) Config {
	sc := core.DefaultScenario()
	sc.Duration = 4 * time.Minute
	return Config{Scenario: sc, Archetype: arch}
}

func TestOracleEmptySchedulePasses(t *testing.T) {
	for _, arch := range core.AllArchetypes() {
		v := NewOracle(testConfig(arch)).Run(&fault.Schedule{})
		if v.Failed() {
			t.Errorf("%s: empty schedule fails the oracle: %s", arch, v)
		}
		if v.JournalHash == "" {
			t.Errorf("%s: no journal hash", arch)
		}
	}
}

func TestOracleCrashEveryNodeReportsNonRecovery(t *testing.T) {
	// The total-loss schedule: every node in the topology goes down a
	// minute in and never comes back. The system must terminate and
	// report non-recovery — not hang, not panic.
	cfg := testConfig(core.ML4)
	s := &fault.Schedule{}
	for _, n := range core.TopologyOf(cfg.Scenario).All() {
		s.Crash(time.Minute, n, 0)
	}
	done := make(chan Verdict, 1)
	go func() { done <- NewOracle(cfg).Run(s) }()
	var v Verdict
	select {
	case v = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("oracle hung on the crash-everything schedule")
	}
	if !v.HasKind(FailNonRecovery) {
		t.Fatalf("total loss not flagged as non-recovery: %s", v)
	}
	if v.HasKind(FailPanic) {
		t.Fatalf("total loss panicked: %s", v)
	}
}

func TestOracleFlagsUnrepairedGatewayCrashOnML1(t *testing.T) {
	s := &fault.Schedule{}
	s.Crash(time.Minute, core.TopologyOf(core.DefaultScenario()).Gateways[0], 0)
	v := NewOracle(testConfig(core.ML1)).Run(s)
	if !v.Failed() {
		t.Fatal("ML1 survived an unrepaired gateway crash?")
	}
	if !v.HasKind(FailNonRecovery) {
		t.Fatalf("expected non-recovery, got: %s", v)
	}
}

func TestOracleDeterministic(t *testing.T) {
	cfg := testConfig(core.ML1)
	s := &fault.Schedule{}
	s.Crash(time.Minute, core.TopologyOf(cfg.Scenario).Gateways[1], 0)
	o := NewOracle(cfg)
	v1, v2 := o.Run(s), o.Run(s)
	if v1.JournalHash != v2.JournalHash {
		t.Fatalf("same schedule, different journals: %s vs %s", v1.JournalHash, v2.JournalHash)
	}
	if !reflect.DeepEqual(v1.Failures, v2.Failures) {
		t.Fatalf("same schedule, different failures: %v vs %v", v1.Failures, v2.Failures)
	}
}

func TestShrinkReachesSingleEvent(t *testing.T) {
	// One fatal event (unrepaired gateway crash) padded with six
	// harmless events: shrinking must strip the padding down to the
	// single event that matters.
	cfg := testConfig(core.ML1)
	topo := core.TopologyOf(cfg.Scenario)
	s := &fault.Schedule{}
	s.Crash(time.Minute, topo.Gateways[0], 0)
	s.UpgradeStack(30*time.Second, topo.Gateways[1])
	s.UpgradeStack(40*time.Second, topo.Gateways[2])
	s.TransferDomain(50*time.Second, topo.Sensors[0], "cloudprov")
	s.DegradeLink(70*time.Second, 10*time.Second, topo.Gateways[3], topo.Cloud, 100*time.Millisecond, 0.1)
	s.UpgradeStack(80*time.Second, topo.Cloudlets[0])
	s.UpgradeStack(90*time.Second, topo.Cloudlets[1])

	o := NewOracle(cfg)
	v := o.Run(s)
	if !v.Failed() {
		t.Fatal("padded schedule does not fail")
	}
	sr := Shrink(o, s, v, 0)
	if sr.ToEvents != 1 {
		t.Fatalf("shrunk to %d events, want 1:\n%s", sr.ToEvents, sr.Schedule)
	}
	ev := sr.Schedule.Events()[0]
	if ev.Kind != fault.KindCrash || ev.Node != topo.Gateways[0] {
		t.Fatalf("wrong surviving event: %+v", ev)
	}
	if !sr.Verdict.sharesKind(v.Kinds()) {
		t.Fatalf("minimal schedule lost the original failure: %s vs %s", sr.Verdict, v)
	}
	if sr.FromEvents != 8 { // crash + 6 pads + link restore
		t.Fatalf("FromEvents = %d", sr.FromEvents)
	}
}

func TestGeneratorCandidatesDeterministic(t *testing.T) {
	g1, g2 := NewGenerator(testConfig(core.ML1)), NewGenerator(testConfig(core.ML1))
	for i := 0; i < 40; i++ {
		a, b := g1.Candidate(42, i), g2.Candidate(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("candidate %d differs across generators", i)
		}
		if a.Len() == 0 {
			t.Fatalf("candidate %d is empty", i)
		}
		for _, ev := range a.Events() {
			if ev.At < 0 || ev.At >= 4*time.Minute {
				t.Fatalf("candidate %d event outside horizon: %+v", i, ev)
			}
		}
	}
	if reflect.DeepEqual(g1.Candidate(42, 0), g1.Candidate(43, 0)) {
		t.Fatal("different search seeds produced identical candidates")
	}
}

func TestSearchFindsAndShrinksOnML1(t *testing.T) {
	res, err := Search(testConfig(core.ML1), 1, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Found) == 0 {
		t.Fatal("budget-12 ML1 search found nothing")
	}
	for _, f := range res.Found {
		if !f.Minimal.Verdict.Failed() {
			t.Fatalf("candidate %d: minimal schedule passes", f.Index)
		}
		if f.Minimal.ToEvents > f.Minimal.FromEvents {
			t.Fatalf("candidate %d grew while shrinking: %d→%d", f.Index, f.Minimal.FromEvents, f.Minimal.ToEvents)
		}
	}
	if res.OracleRuns <= res.Budget {
		t.Fatalf("oracle runs %d should exceed budget %d (shrinking ran)", res.OracleRuns, res.Budget)
	}
}

func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Search(testConfig(core.ML1), 7, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Search(testConfig(core.ML1), 7, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("search results differ between 1 and 4 workers")
	}
}

func TestSearchEmitsObsEvents(t *testing.T) {
	cfg := testConfig(core.ML1)
	cfg.Bus = obs.NewBus(nil)
	sub := cfg.Bus.Subscribe(256)
	defer sub.Close()
	if _, err := Search(cfg, 1, 4, 1); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, ev := range sub.Events() {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"chaos.search.start", "chaos.violation", "chaos.search.done"} {
		if !kinds[want] {
			t.Errorf("no %s event on the bus (got %v)", want, kinds)
		}
	}
}

func TestCorpusRoundTripAndReplay(t *testing.T) {
	cfg := testConfig(core.ML1)
	o := NewOracle(cfg)
	topo := core.TopologyOf(cfg.Scenario)
	s := &fault.Schedule{}
	s.Crash(time.Minute, topo.Gateways[0], 0)
	v := o.Run(s)
	if !v.Failed() {
		t.Fatal("seed schedule passes")
	}
	sr := Shrink(o, s, v, 0)
	ce := NewCounterexample(cfg, sr)
	if ce.Name == "" || ce.JournalHash == "" || len(ce.Failures) == 0 {
		t.Fatalf("incomplete counterexample: %+v", ce)
	}

	dir := t.TempDir()
	path, err := ce.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("wrote outside dir: %s", path)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Name != ce.Name {
		t.Fatalf("loaded %+v", loaded)
	}
	if !reflect.DeepEqual(loaded[0], ce) {
		t.Fatalf("corpus round trip differs:\n%+v\nvs\n%+v", loaded[0], ce)
	}

	// Replay serially and with 4 workers: both must reproduce.
	for _, workers := range []int{1, 4} {
		results, err := ReplayAll(loaded, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != 1 || results[0].Err != nil {
			t.Fatalf("workers=%d: %+v", workers, results)
		}
	}
}

func TestReplayDetectsHashDrift(t *testing.T) {
	cfg := testConfig(core.ML1)
	o := NewOracle(cfg)
	s := &fault.Schedule{}
	s.Crash(time.Minute, core.TopologyOf(cfg.Scenario).Gateways[0], 0)
	v := o.Run(s)
	sr := Shrink(o, s, v, 0)
	ce := NewCounterexample(cfg, sr)
	ce.JournalHash = "0000deadbeef"
	err := ce.Replay()
	if err == nil || !strings.Contains(err.Error(), "journal hash drifted") {
		t.Fatalf("tampered hash not detected: %v", err)
	}
}

func TestReplayDetectsPersistenceDrift(t *testing.T) {
	cfg := testConfig(core.ML1)
	o := NewOracle(cfg)
	s := &fault.Schedule{}
	s.Crash(time.Minute, core.TopologyOf(cfg.Scenario).Gateways[0], 0)
	v := o.Run(s)
	ce := NewCounterexample(cfg, Shrink(o, s, v, 0))
	if err := ce.Replay(); err != nil {
		t.Fatalf("untouched entry: %v", err)
	}
	recorded, perturbed := ce.GoalPersistence, ce.GoalPersistence+1e-9
	ce.GoalPersistence = perturbed
	err := ce.Replay()
	if err == nil || !strings.Contains(err.Error(), "goal persistence drifted") ||
		!strings.Contains(err.Error(), fmt.Sprint(perturbed)) || !strings.Contains(err.Error(), fmt.Sprint(recorded)) {
		t.Fatalf("perturbed R not detected, or the error does not name both values: %v", err)
	}
}

func TestReplayDetectsMissingFailure(t *testing.T) {
	cfg := testConfig(core.ML4) // ML4 heals a repaired crash: no failure
	ce := &Counterexample{
		Schema:             CorpusSchema,
		Name:               "bogus",
		Archetype:          "ML4",
		Seed:               cfg.Scenario.Seed,
		Zones:              cfg.Scenario.Zones,
		TempSensorsPerZone: cfg.Scenario.TempSensorsPerZone,
		Cloudlets:          cfg.Scenario.Cloudlets,
		Duration:           cfg.Scenario.Duration.String(),
		MinPersistence:     -1, // disable the floor: nothing should fail
		Schedule:           &fault.Schedule{},
		Failures:           []FailureKind{FailNonRecovery},
	}
	err := ce.Replay()
	if err == nil || !strings.Contains(err.Error(), "did not reproduce") {
		t.Fatalf("phantom failure not detected: %v", err)
	}
}

func TestDedupFound(t *testing.T) {
	cfg := testConfig(core.ML1)
	o := NewOracle(cfg)
	mk := func(at time.Duration) Found {
		s := &fault.Schedule{}
		s.Crash(at, core.TopologyOf(cfg.Scenario).Gateways[0], 0)
		v := o.Run(s)
		return Found{Schedule: s, Minimal: ShrinkResult{Schedule: s, Verdict: v, FromEvents: 1, ToEvents: 1}}
	}
	// Same shape at different times → one survivor.
	got := DedupFound([]Found{mk(time.Minute), mk(90 * time.Second)})
	if len(got) != 1 {
		t.Fatalf("dedup kept %d of 2 same-shape finds", len(got))
	}
}

func TestGeneratorMinEventsFloorsCandidates(t *testing.T) {
	base := testConfig(core.ML4)
	floored := base
	floored.MinEvents = 6
	g := NewGenerator(floored)
	for i := 0; i < 32; i++ {
		if n := g.Candidate(11, i).Len(); n < 6 {
			t.Fatalf("candidate %d has %d events, want >= 6", i, n)
		}
	}
	// Flooring must not break derivation purity: the same (seed, index)
	// yields the same schedule on every call, so campaigns stay
	// identical at any worker count.
	g2 := NewGenerator(floored)
	for i := 0; i < 32; i++ {
		if a, b := g.Candidate(11, i), g2.Candidate(11, i); a.String() != b.String() {
			t.Fatalf("candidate %d not pure under MinEvents:\n%s\nvs\n%s", i, a, b)
		}
	}
}
