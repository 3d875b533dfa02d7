package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/observatory"
)

// failingSchedule crashes the zone-0 gateway and never repairs it — the
// canonical non-recovery counterexample for low-maturity archetypes.
func failingSchedule() *fault.Schedule {
	return (&fault.Schedule{}).Crash(2*time.Minute, "gw-0", 0)
}

func quickConfig() Config {
	sc := core.DefaultScenario()
	sc.Duration = 8 * time.Minute
	return Config{Scenario: sc, Archetype: core.ML1}
}

func TestOracleKeepJournal(t *testing.T) {
	cfg := quickConfig()

	bare := NewOracle(cfg).Run(failingSchedule())
	if bare.Journal != nil {
		t.Fatalf("journal kept without KeepJournal: %d events", len(bare.Journal))
	}

	cfg.KeepJournal = true
	kept := NewOracle(cfg).Run(failingSchedule())
	if len(kept.Journal) == 0 {
		t.Fatal("KeepJournal produced no journal")
	}
	if kept.JournalHash != bare.JournalHash {
		t.Fatalf("keeping the journal changed the run: %s vs %s", kept.JournalHash, bare.JournalHash)
	}
	a := observatory.Analyze(kept.Journal, observatory.Options{
		Duration: cfg.Scenario.Duration, Zones: cfg.Scenario.Zones,
	})
	if len(a.Incidents) == 0 {
		t.Fatal("failing run analyzed to zero incidents")
	}
}

func TestOracleFlightDumpOnFailure(t *testing.T) {
	cfg := quickConfig()
	cfg.FlightDir = t.TempDir()

	v := NewOracle(cfg).Run(failingSchedule())
	if !v.Failed() {
		t.Fatalf("ML1 crash schedule unexpectedly passed: %s", v)
	}
	paths, err := filepath.Glob(filepath.Join(cfg.FlightDir, "*.flight.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("flight dumps = %v (err %v), want exactly one", paths, err)
	}
	dump, err := observatory.ReadFlightDump(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) == 0 || len(dump.Reason) == 0 {
		t.Fatalf("empty flight dump: %+v", dump)
	}

	// A passing run must not dump.
	passDir := t.TempDir()
	pass := cfg
	pass.FlightDir = passDir
	pass.Archetype = core.ML4
	pass.Scenario = pass.Scenario.Hardened()
	if v := NewOracle(pass).Run(failingSchedule()); v.Failed() {
		t.Fatalf("hardened ML4 failed the single-crash schedule: %s", v)
	}
	if entries, _ := os.ReadDir(passDir); len(entries) != 0 {
		t.Fatalf("passing run wrote flight dumps: %v", entries)
	}

	// Recording must not perturb the run: same schedule, same hash.
	bare := quickConfig()
	if b := NewOracle(bare).Run(failingSchedule()); b.JournalHash != v.JournalHash {
		t.Fatalf("flight recorder changed the journal hash: %s vs %s", b.JournalHash, v.JournalHash)
	}
}

// TestCorpusVerifyExplains is the acceptance check for the observatory:
// every corpus entry analyzes to an incident timeline whose recovery
// outcome agrees with the entry's expectation. The default-knob replay
// (where the counterexample fired) must always yield incidents; the
// hardened run must analyze clean for fixed entries (zero unresolved
// incidents — often zero incidents at all, when a mechanism prevents
// the violation outright) and degraded for still-fails entries.
func TestCorpusVerifyExplains(t *testing.T) {
	ces, err := LoadCorpus(filepath.Join("..", "..", "corpus", "chaos"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) == 0 {
		t.Skip("no corpus checked out")
	}
	results, err := VerifyAllObserved(ces, 4, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Journal == nil {
			t.Errorf("%s: verify kept no journal", res.Name)
			continue
		}
		ce := findEntry(ces, res.Name)
		cfg, err := ce.HardenedConfig()
		if err != nil {
			t.Fatal(err)
		}
		opts := observatory.Options{Duration: cfg.Scenario.Duration, Zones: cfg.Scenario.Zones}
		a := observatory.Analyze(res.Journal, opts)
		switch res.Status {
		case ExpectFixed:
			if a.Unresolved != 0 {
				t.Errorf("%s: fixed entry left %d unresolved incidents", res.Name, a.Unresolved)
			}
		case ExpectStillFails:
			if a.Unresolved == 0 && a.Timeline.GoalOverall >= cfg.MinPersistence {
				t.Errorf("%s: still-fails entry analyzed clean (unresolved=0, R(t)=%.3f)",
					res.Name, a.Timeline.GoalOverall)
			}
		}

		// The default-knob replay is the run the counterexample pinned:
		// its analysis must surface incidents and degraded availability.
		dcfg, err := ce.Config()
		if err != nil {
			t.Fatal(err)
		}
		dcfg.KeepJournal = true
		dv := NewOracle(dcfg).Run(ce.Schedule)
		da := observatory.Analyze(dv.Journal, opts)
		if len(da.Incidents) == 0 {
			t.Errorf("%s: default-knob replay analyzed to zero incidents", res.Name)
		}
		if da.Unresolved != dv.Report.UnresolvedViolations {
			t.Errorf("%s: analysis unresolved=%d, report=%d",
				res.Name, da.Unresolved, dv.Report.UnresolvedViolations)
		}
	}
}

// TestReportAgreesWithAnalysis: a run's Report and the observatory's
// explanation of its journal score the same outages, so R and the
// unresolved count agree exactly — on the paper matrix at seeds 1–3,
// the city-smoke matrix and every corpus entry, at default and hardened
// knobs.
func TestReportAgreesWithAnalysis(t *testing.T) {
	type run struct {
		name string
		cfg  core.ScenarioConfig
		arch core.Archetype
	}
	var runs []run
	matrix := func(name string, cfg core.ScenarioConfig) {
		for _, a := range core.AllArchetypes() {
			runs = append(runs, run{name + "/" + a.String(), cfg, a})
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := core.DefaultScenario()
		cfg.Seed = seed
		matrix(fmt.Sprintf("paper/seed-%d", seed), cfg)
	}
	matrix("city-smoke", core.CityScenarioSmoke())
	matrix("city-smoke-hardened", core.CityScenarioSmoke().Hardened())
	ces, err := LoadCorpus(filepath.Join("..", "..", "corpus", "chaos"))
	if err != nil || len(ces) == 0 {
		t.Fatalf("corpus: %d entries, err %v", len(ces), err)
	}
	for _, ce := range ces {
		for _, profile := range []string{"default", "hardened"} {
			cfg, err := ce.Config()
			if profile == "hardened" {
				cfg, err = ce.HardenedConfig()
			}
			if err != nil {
				t.Fatal(err)
			}
			sc := cfg.Scenario
			sc.Preset, sc.Faults = core.FaultsNone, ce.Schedule
			runs = append(runs, run{ce.Name + "/" + profile, sc, cfg.Archetype})
		}
	}

	for _, r := range runs {
		sys := core.NewSystem(r.cfg, r.arch)
		report := sys.Run()
		a := observatory.Analyze(sys.Journal(), observatory.Options{Duration: r.cfg.Duration, Zones: r.cfg.Zones})
		if a.Timeline.GoalOverall != report.GoalPersistence {
			t.Errorf("%s: analysis R=%v, report R=%v", r.name, a.Timeline.GoalOverall, report.GoalPersistence)
		}
		if a.Unresolved != report.UnresolvedViolations {
			t.Errorf("%s: analysis unresolved=%d, report=%d", r.name, a.Unresolved, report.UnresolvedViolations)
		}
	}
}

func findEntry(ces []*Counterexample, name string) *Counterexample {
	for _, ce := range ces {
		if ce.Name == name {
			return ce
		}
	}
	return nil
}
