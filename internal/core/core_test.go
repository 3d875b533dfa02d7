package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// quickCfg is a shortened scenario for tests.
func quickCfg(preset FaultPreset) ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Duration = 6 * time.Minute
	cfg.Preset = preset
	return cfg
}

func TestArchetypeString(t *testing.T) {
	want := map[Archetype]string{
		ML1: "ML1-silo", ML2: "ML2-cloud", ML3: "ML3-edge", ML4: "ML4-resilient",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
	if Archetype(9).String() != "archetype(9)" {
		t.Fatal("unknown archetype name")
	}
	if len(AllArchetypes()) != 4 {
		t.Fatal("AllArchetypes wrong")
	}
}

func TestParseTier(t *testing.T) {
	for name, want := range map[string]ScenarioConfig{
		"default":     DefaultScenario(),
		"city":        CityScenario(),
		"city-smoke":  CityScenarioSmoke(),
		"metro":       MetropolisScenario(),
		"metro-smoke": MetropolisScenarioSmoke(),
		"City-SMOKE":  CityScenarioSmoke(),
	} {
		if got, err := ParseTier(name); err != nil || got != want {
			t.Fatalf("ParseTier(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	_, err := ParseTier("mega")
	if err == nil {
		t.Fatal(`ParseTier("mega") accepted`)
	}
	for _, name := range []string{`"mega"`, "default", "city", "city-smoke", "metro", "metro-smoke"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ParseTier error %q does not name %s", err, name)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	cfg := ScenarioConfig{}.withDefaults()
	if cfg.Zones == 0 || cfg.Duration == 0 || cfg.CoolRate >= 0 {
		t.Fatalf("defaults incomplete: %+v", cfg)
	}
}

func TestStandardFaultsNonEmptySorted(t *testing.T) {
	s := buildFaults(DefaultScenario())
	evs := s.Events()
	if len(evs) == 0 {
		t.Fatal("no fault events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events not sorted")
		}
	}
	if n := buildFaults(quickCfg(FaultsNone)).Len(); n != 0 {
		t.Fatalf("FaultsNone produced %d events", n)
	}
	if buildFaults(quickCfg(FaultsHeavy)).Len() == 0 {
		t.Fatal("FaultsHeavy empty")
	}
}

func TestML1CalmRunControlsTemperature(t *testing.T) {
	r := NewSystem(quickCfg(FaultsNone), ML1).Run()
	if r.TempPersistence < 0.95 {
		t.Fatalf("ML1 calm temp persistence = %.3f, want ≥0.95", r.TempPersistence)
	}
	if r.InvocationSuccess < 0.9 {
		t.Fatalf("ML1 calm invocation = %.3f", r.InvocationSuccess)
	}
	if r.PrivacyViolations != 0 {
		t.Fatalf("ML1 leaked %d items (nothing leaves the zone in a silo)", r.PrivacyViolations)
	}
	if r.ValidationCoverage != 0 {
		t.Fatalf("ML1 validation = %.2f, want 0", r.ValidationCoverage)
	}
}

func TestML2CalmRunLeaksSensitiveData(t *testing.T) {
	r := NewSystem(quickCfg(FaultsNone), ML2).Run()
	if r.TempPersistence < 0.9 {
		t.Fatalf("ML2 calm temp persistence = %.3f", r.TempPersistence)
	}
	if r.PrivacyViolations == 0 {
		t.Fatal("ML2 ships occupancy to the cloud; auditor saw nothing")
	}
	if r.ValidationCoverage != 0.5 {
		t.Fatalf("ML2 validation = %.2f, want 0.50 (runtime only)", r.ValidationCoverage)
	}
}

func TestML3CalmRun(t *testing.T) {
	r := NewSystem(quickCfg(FaultsNone), ML3).Run()
	if r.TempPersistence < 0.95 {
		t.Fatalf("ML3 calm temp persistence = %.3f", r.TempPersistence)
	}
	if r.PrivacyViolations == 0 {
		t.Fatal("ML3 forwards everything to the cloud; auditor saw nothing")
	}
	if r.ValidationCoverage <= 0.5 || r.ValidationCoverage >= 1 {
		t.Fatalf("ML3 validation = %.2f, want in (0.5,1)", r.ValidationCoverage)
	}
	if !r.DesignChecksPassed {
		t.Fatal("ML3 design checks failed")
	}
}

func TestML4CalmRunEnforcesPrivacyAndFullValidation(t *testing.T) {
	r := NewSystem(quickCfg(FaultsNone), ML4).Run()
	if r.TempPersistence < 0.95 {
		t.Fatalf("ML4 calm temp persistence = %.3f", r.TempPersistence)
	}
	if r.PrivacyViolations != 0 {
		t.Fatalf("ML4 leaked %d items despite enforcement", r.PrivacyViolations)
	}
	if r.ValidationCoverage != 1 {
		t.Fatalf("ML4 validation = %.2f, want 1", r.ValidationCoverage)
	}
	if !r.DesignChecksPassed {
		t.Fatal("ML4 design checks failed")
	}
	if r.DataAvailability < 0.9 {
		t.Fatalf("ML4 calm data availability = %.3f", r.DataAvailability)
	}
}

func TestMatrixUnderDisruption(t *testing.T) {
	cfg := quickCfg(FaultsStandard)
	cfg.Duration = 10 * time.Minute
	reports := RunMatrix(cfg)
	byArch := make(map[Archetype]Report, len(reports))
	for _, r := range reports {
		byArch[r.Archetype] = r
	}
	ml1, ml2, ml3, ml4 := byArch[ML1], byArch[ML2], byArch[ML3], byArch[ML4]

	t.Logf("\n%s", FormatReports(reports))

	// Headline: resilience improves with maturity level.
	if !(ml4.GoalPersistence > ml1.GoalPersistence) {
		t.Fatalf("ML4 R=%.3f not above ML1 R=%.3f", ml4.GoalPersistence, ml1.GoalPersistence)
	}
	if ml4.GoalPersistence < ml3.GoalPersistence-0.02 {
		t.Fatalf("ML4 R=%.3f clearly below ML3 R=%.3f", ml4.GoalPersistence, ml3.GoalPersistence)
	}
	if ml4.TempPersistence < 0.9 {
		t.Fatalf("ML4 temp persistence = %.3f under standard faults", ml4.TempPersistence)
	}

	// Pervasiveness: ML4's open edge beats the silo and the
	// cloud-tethered variants.
	if !(ml4.Pervasiveness >= ml3.Pervasiveness && ml3.Pervasiveness >= ml1.Pervasiveness) {
		t.Fatalf("pervasiveness not monotone: %.3f / %.3f / %.3f", ml1.Pervasiveness, ml3.Pervasiveness, ml4.Pervasiveness)
	}
	if ml2.Pervasiveness >= ml4.Pervasiveness {
		t.Fatalf("cloud-only pervasiveness %.3f should trail ML4 %.3f (WAN outage)", ml2.Pervasiveness, ml4.Pervasiveness)
	}

	// Deviceless: ML4 keeps invoking through failures.
	if ml4.InvocationSuccess <= ml1.InvocationSuccess {
		t.Fatalf("ML4 invocations %.3f not above ML1 %.3f", ml4.InvocationSuccess, ml1.InvocationSuccess)
	}

	// Validation coverage is strictly ordered by construction.
	if !(ml1.ValidationCoverage < ml2.ValidationCoverage &&
		ml2.ValidationCoverage < ml3.ValidationCoverage &&
		ml3.ValidationCoverage < ml4.ValidationCoverage) {
		t.Fatalf("validation coverage not increasing: %.2f %.2f %.2f %.2f",
			ml1.ValidationCoverage, ml2.ValidationCoverage, ml3.ValidationCoverage, ml4.ValidationCoverage)
	}

	// Operations automation: the silo needs the most manual repairs;
	// the resilient system the fewest.
	if ml4.ManualInterventions > ml1.ManualInterventions {
		t.Fatalf("ML4 manual=%d above ML1 manual=%d", ml4.ManualInterventions, ml1.ManualInterventions)
	}

	// Data governance: only ML4 is violation-free; data availability
	// is best at ML4.
	if ml4.PrivacyViolations != 0 {
		t.Fatalf("ML4 violations = %d", ml4.PrivacyViolations)
	}
	if ml2.PrivacyViolations == 0 || ml3.PrivacyViolations == 0 {
		t.Fatal("ML2/ML3 should show violations")
	}
	if !(ml4.DataAvailability > ml1.DataAvailability && ml4.DataAvailability > ml2.DataAvailability) {
		t.Fatalf("ML4 data availability %.3f not dominant (%.3f, %.3f)",
			ml4.DataAvailability, ml1.DataAvailability, ml2.DataAvailability)
	}
}

func TestModelsAtRuntimeChecksRun(t *testing.T) {
	r := NewSystem(quickCfg(FaultsNone), ML4).Run()
	if r.RuntimeChecks == 0 {
		t.Fatal("no models@runtime re-verifications performed")
	}
	if r.RuntimeAlerts != 0 {
		t.Fatalf("alerts = %d on a calm run with 6 edge nodes", r.RuntimeAlerts)
	}
	// Non-ML4 archetypes have no models@runtime machinery.
	r1 := NewSystem(quickCfg(FaultsNone), ML1).Run()
	if r1.RuntimeChecks != 0 {
		t.Fatal("ML1 performed runtime checks")
	}
}

func TestModelsAtRuntimeAlertsWhenAssumptionBreaks(t *testing.T) {
	// A minimal edge group (2 gateways + 1 cloudlet = 3 edge nodes)
	// with one gateway down for a long stretch: only 2 edge nodes
	// remain alive, so "control survives any 2 concurrent failures"
	// is no longer satisfiable — the leader's re-verification must
	// raise alerts while the outage lasts.
	cfg := quickCfg(FaultsNone)
	cfg.Zones = 2
	cfg.Cloudlets = 1
	sched := &fault.Schedule{}
	sched.Crash(time.Minute, "gw-1", 3*time.Minute)
	cfg.Faults = sched
	r := NewSystem(cfg, ML4).Run()
	if r.RuntimeAlerts == 0 {
		t.Fatalf("no runtime alerts despite broken failure assumption (checks=%d)", r.RuntimeChecks)
	}
	if r.RuntimeAlerts >= r.RuntimeChecks {
		t.Fatalf("alerts=%d should cover only the outage window of %d checks", r.RuntimeAlerts, r.RuntimeChecks)
	}
}

// TestEdgeFanoutFollowsGroupSize pins the one ML4 size rule at its
// edge: up to 6 edge nodes (gateways + cloudlets) peer all-to-all,
// and a seventh turns on the bounded ring, relay and slow heartbeat.
func TestEdgeFanoutFollowsGroupSize(t *testing.T) {
	for _, c := range []struct{ zones, cloudlets, want int }{
		{2, 1, 0}, {4, 2, 0}, {5, 2, 4}, {6, 2, 4}, {40, 4, 4},
	} {
		cfg := quickCfg(FaultsNone)
		cfg.Zones, cfg.Cloudlets = c.zones, c.cloudlets
		if got := NewSystem(cfg, ML4).edgeFanout(); got != c.want {
			t.Errorf("%d gateways + %d cloudlets: fanout %d, want %d", c.zones, c.cloudlets, got, c.want)
		}
	}
}

func TestJournalRecordsRunStory(t *testing.T) {
	cfg := quickCfg(FaultsStandard)
	sys := NewSystem(cfg, ML4)
	sys.Run()
	events := sys.Journal()
	if len(events) == 0 {
		t.Fatal("empty journal")
	}
	kinds := map[string]int{}
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && ev.At < events[i-1].At {
			t.Fatal("journal not chronological")
		}
	}
	if kinds[EventFault] == 0 {
		t.Fatal("no fault events journaled")
	}
	if kinds[EventPlacement] == 0 {
		t.Fatal("no placement events journaled (ML4 must replan)")
	}
	if out := FormatJournal(events); len(out) == 0 {
		t.Fatal("format empty")
	}
	// ML4 never leaks: no privacy events.
	if kinds[EventPrivacy] != 0 {
		t.Fatalf("privacy events in ML4 journal: %d", kinds[EventPrivacy])
	}

	// ML2's journal does show privacy events.
	sys2 := NewSystem(cfg, ML2)
	sys2.Run()
	privacy := 0
	for _, ev := range sys2.Journal() {
		if ev.Kind == EventPrivacy {
			privacy++
		}
	}
	if privacy == 0 {
		t.Fatal("ML2 journal shows no privacy events")
	}
}

func TestSyncTrafficSurfacedInReportAndJournal(t *testing.T) {
	cfg := quickCfg(FaultsStandard)
	sys := NewSystem(cfg, ML4)
	rep := sys.Run()

	st := sys.SyncTraffic()
	if st.FramesSent == 0 || st.EntriesSent == 0 || st.BytesSent == 0 {
		t.Fatalf("ML4 run reported no replication traffic: %+v", st)
	}
	if rep.SyncFrames != int(st.FramesSent) || rep.SyncEntries != int(st.EntriesSent) ||
		rep.SyncBytes != int(st.BytesSent) || rep.SyncAcks != int(st.AcksIn) {
		t.Fatalf("report sync counters %d/%d/%d/%d != link totals %+v",
			rep.SyncFrames, rep.SyncEntries, rep.SyncBytes, rep.SyncAcks, st)
	}

	// Exactly one horizon summary event, and its detail matches the
	// totals (so journal hashes pin bytes-on-wire).
	var syncs []RunEvent
	for _, ev := range sys.Journal() {
		if ev.Kind == EventSync {
			syncs = append(syncs, ev)
		}
	}
	if len(syncs) != 1 {
		t.Fatalf("EventSync count = %d, want 1", len(syncs))
	}
	want := fmt.Sprintf("frames=%d entries=%d bytes=%d acks=%d",
		st.FramesSent, st.EntriesSent, st.BytesSent, st.AcksIn)
	if syncs[0].Detail != want {
		t.Fatalf("sync event detail = %q, want %q", syncs[0].Detail, want)
	}

	// ML1 has no replicated stores: zero traffic, no sync event.
	sys1 := NewSystem(cfg, ML1)
	rep1 := sys1.Run()
	if rep1.SyncBytes != 0 {
		t.Fatalf("ML1 reported sync bytes: %d", rep1.SyncBytes)
	}
	for _, ev := range sys1.Journal() {
		if ev.Kind == EventSync {
			t.Fatal("ML1 journal has a sync event")
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickCfg(FaultsStandard)
	cfg.Duration = 4 * time.Minute
	r1 := NewSystem(cfg, ML4).Run()
	r2 := NewSystem(cfg, ML4).Run()
	if r1 != r2 {
		t.Fatalf("ML4 runs differ:\n%+v\n%+v", r1, r2)
	}
}

func TestFormatReports(t *testing.T) {
	r := Report{Archetype: ML1, GoalPersistence: 0.5}
	s := FormatReports([]Report{r})
	if s == "" || len(s) < 20 {
		t.Fatalf("format = %q", s)
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}
