package observatory

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// shortScenario is a fast disrupted run for integration tests.
func shortScenario() core.ScenarioConfig {
	cfg := core.DefaultScenario()
	cfg.Duration = 6 * time.Minute
	return cfg
}

// TestObservatoryIsReadOnly is the contract the whole package rests on:
// attaching a flight recorder (activating the obs bus) and analyzing
// the journal must leave the run's journal hash bit-identical to a bare
// run.
func TestObservatoryIsReadOnly(t *testing.T) {
	cfg := shortScenario()

	bare := core.NewSystem(cfg, core.ML4)
	bare.Run()
	bareHash := bare.JournalHash()

	observed := core.NewSystem(cfg, core.ML4)
	fr := NewFlightRecorder(observed.Bus(), 0)
	observed.Run()
	obsHash := observed.JournalHash()
	a := Analyze(observed.Journal(), Options{Duration: cfg.Duration, Zones: cfg.Zones})
	fr.Close()

	if bareHash != obsHash {
		t.Fatalf("journal hash drifted under observation: %s vs %s", bareHash, obsHash)
	}
	if len(a.Incidents) == 0 {
		t.Fatal("disrupted run produced no incidents")
	}
	if len(fr.Snapshot()) == 0 {
		t.Fatal("flight recorder captured nothing")
	}
}

// TestAnalysisAgreesWithReport cross-checks the two independent
// derivations of non-recovery: the report counts monitors still
// violated at the final sample, the analysis counts incidents without a
// recovery event.
func TestAnalysisAgreesWithReport(t *testing.T) {
	for _, arch := range []core.Archetype{core.ML1, core.ML4} {
		cfg := shortScenario()
		sys := core.NewSystem(cfg, arch)
		report := sys.Run()
		a := Analyze(sys.Journal(), Options{Duration: cfg.Duration, Zones: cfg.Zones})
		if a.Unresolved != report.UnresolvedViolations {
			t.Errorf("%v: analysis unresolved=%d, report=%d", arch, a.Unresolved, report.UnresolvedViolations)
		}
	}
}

// TestCitySmokeResilienceBudget bounds the three deterministic figures
// of the city-smoke ML4 run (seed 1, default knobs) that bench/ records
// (sync.bytes, observatory.mttd_p99_vs, observatory.mttr_p99_vs) but
// does not bound. The bounds are the values the retired BENCH_riot.json
// baseline pinned; they are upward-only, and lowering one is the way to
// record an improvement.
func TestCitySmokeResilienceBudget(t *testing.T) {
	cfg := core.CityScenarioSmoke()
	sys := core.NewSystem(cfg, core.ML4)
	sys.Run()
	a := Analyze(sys.Journal(), Options{Duration: cfg.Duration, Zones: cfg.Zones})
	if got := sys.SyncTraffic().BytesSent; got > 1506154 {
		t.Errorf("sync bytes on the wire = %d, budget 1506154", got)
	}
	if a.MTTD.Count == 0 {
		t.Fatal("disrupted city run produced no detected incidents")
	}
	if a.MTTD.P99 > 6800*time.Millisecond {
		t.Errorf("MTTD p99 = %v, budget 6.8s", a.MTTD.P99)
	}
	if a.MTTR.P99 > 25*time.Second {
		t.Errorf("MTTR p99 = %v, budget 25s", a.MTTR.P99)
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	bus := obs.NewBus(nil)
	fr := NewFlightRecorder(bus, 8)
	defer fr.Close()
	for i := 0; i < 12; i++ { // overflow the ring: newest 8 win
		bus.Emit("core.fault", "", 0, 0, "event %d", i)
	}
	dump := fr.Dump("ml4-test", []string{"low-persistence: R=0.1"})
	if len(dump.Events) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(dump.Events))
	}
	if dump.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dump.Dropped)
	}
	if dump.Events[len(dump.Events)-1].Detail != "event 11" {
		t.Fatalf("newest event = %+v", dump.Events[len(dump.Events)-1])
	}

	dir := t.TempDir()
	path, err := dump.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != dump.Name || len(back.Events) != len(dump.Events) || back.Reason[0] != dump.Reason[0] {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestPublishOverlay(t *testing.T) {
	j := []core.RunEvent{
		{At: 0, Kind: core.EventFault, Detail: "crash gw-0"},
		{At: 14 * time.Second, Kind: core.EventViolation, Detail: "zone 0 data stale at controller"},
		{At: 20 * time.Second, Kind: core.EventRecovery, Detail: "zone 0 data fresh at controller again"},
		{At: 30 * time.Second, Kind: core.EventViolation, Detail: "zone 1 temperature out of band (27.0°)"},
	}
	a := Analyze(j, Options{Duration: time.Minute, Zones: 2})
	// A bus whose clock reads the end of the run, as a finished run's does.
	bus := obs.NewBus(func() time.Duration { return time.Minute })
	tc := obs.Collect(bus)
	PublishOverlay(a, bus)
	tc.Close()
	var sb strings.Builder
	if err := tc.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"incident.freshness"`, `"incident.temperature.unresolved"`, `"fault"`, `"zone-0"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace overlay missing %s:\n%s", want, out)
		}
	}
	// The time-zero fault stays at the start, not at the clock's reading.
	for _, ev := range tc.Events() {
		if ev.Kind == "fault" && ev.At >= time.Second {
			t.Fatalf("fault at 0 published at %v", ev.At)
		}
	}
}
