// Package chaos searches disruption-schedule space for requirement
// violations. The paper defines resilience as persistence of reliable
// requirements satisfaction under *any* disruption — not only the
// scripted Table 1/2 schedule — so this package closes the loop between
// the repository's fault injector and its formal oracles: a generator
// samples candidate fault.Schedules (biased mutation of timing,
// targets, kinds and nesting), an oracle runs each candidate through a
// deterministic core simulation and flags failures, a shrinker
// delta-debugs failing schedules to minimal counterexamples, and a
// corpus serializes the minimized results as replayable regression
// artifacts (schedule + seed + archetype + expected verdict + journal
// hash). Campaigns fan out over experiments.RunPool and stay
// byte-reproducible at any worker count, in the tradition of
// Jepsen-style exploration and delta-debugging minimization.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultMinPersistence is the resilience floor the oracle applies when
// the config leaves MinPersistence zero: a run whose overall goal
// persistence R falls below it fails.
const DefaultMinPersistence = 0.85

// Config parameterizes a chaos search: the base scenario every
// candidate runs (its Faults/Preset are replaced by the candidate
// schedule), the archetype under test, and the oracle's thresholds.
type Config struct {
	// Scenario is the base workload. Zero fields take DefaultScenario
	// values; Seed pins the simulation (not the candidate generator,
	// which is seeded per search).
	Scenario core.ScenarioConfig
	// Archetype under test; zero selects ML4, the architecture the
	// paper claims is resilient.
	Archetype core.Archetype
	// MinPersistence is the floor on Report.GoalPersistence. Zero
	// selects DefaultMinPersistence; negative disables the check.
	MinPersistence float64
	// MinEvents floors the number of events per generated candidate
	// schedule (counting repairs), so post-hardening campaigns explore
	// fault *combinations* instead of re-finding single events the
	// corpus already pins. Zero keeps the generator's historical 1–4
	// action sampling.
	MinEvents int
	// Bus receives chaos.* progress events (candidate verdicts,
	// violations found, shrink results). Nil disables instrumentation;
	// the obs fast path makes an idle bus near-free.
	Bus *obs.Bus
	// KeepJournal retains each run's journal on the Verdict so callers
	// (replay and verify -explain) can derive incident timelines
	// without re-running. Off by default: searches judge thousands of
	// candidates and only care about pass/fail.
	KeepJournal bool
	// FlightDir, when non-empty, attaches a flight recorder to every run
	// and dumps its ring there whenever the oracle flags a failure. The
	// recorder only reads the bus, so journals and hashes are unaffected.
	FlightDir string
}

// withDefaults normalizes a config.
func (c Config) withDefaults() Config {
	if c.Archetype == 0 {
		c.Archetype = core.ML4
	}
	if c.MinPersistence == 0 {
		c.MinPersistence = DefaultMinPersistence
	}
	return c
}

// FailureKind classifies why the oracle rejected a run.
type FailureKind string

// Oracle failure classes.
const (
	// FailPersistence: overall goal persistence R fell below the floor.
	FailPersistence FailureKind = "low-persistence"
	// FailNonRecovery: at least one requirement was still violated when
	// the run ended — the system never recovered it.
	FailNonRecovery FailureKind = "non-recovery"
	// FailPrivacy: the data-flow auditor observed a governed item at a
	// node policy forbids.
	FailPrivacy FailureKind = "privacy-violation"
	// FailDesign: a design-time model-checking verdict failed.
	FailDesign FailureKind = "design-check"
	// FailPanic: the run panicked.
	FailPanic FailureKind = "panic"
)

// Failure is one oracle complaint about a run.
type Failure struct {
	Kind   FailureKind `json:"kind"`
	Detail string      `json:"detail"`
}

func (f Failure) String() string { return fmt.Sprintf("%s: %s", f.Kind, f.Detail) }

// Verdict is the oracle's judgement of one candidate schedule.
type Verdict struct {
	// Failures is empty when the run satisfied every property.
	Failures []Failure
	// Report is the run's full measurement (zero after a panic).
	Report core.Report
	// JournalHash digests the run's journal; corpus replay compares it
	// byte-for-byte.
	JournalHash string
	// Journal is the run's full event journal, retained only when the
	// oracle config sets KeepJournal (nil otherwise, and always nil
	// after a panic).
	Journal []core.RunEvent
}

// Failed reports whether the oracle flagged the run.
func (v Verdict) Failed() bool { return len(v.Failures) > 0 }

// Kinds lists the verdict's failure kinds in order.
func (v Verdict) Kinds() []FailureKind {
	out := make([]FailureKind, len(v.Failures))
	for i, f := range v.Failures {
		out[i] = f.Kind
	}
	return out
}

// HasKind reports whether the verdict contains a failure of kind k.
func (v Verdict) HasKind(k FailureKind) bool {
	for _, f := range v.Failures {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// sharesKind reports whether the verdict reproduces at least one of the
// wanted failure kinds — the shrinker's "same bug" criterion.
func (v Verdict) sharesKind(want []FailureKind) bool {
	for _, k := range want {
		if v.HasKind(k) {
			return true
		}
	}
	return false
}

func (v Verdict) String() string {
	if !v.Failed() {
		return "pass"
	}
	parts := make([]string, len(v.Failures))
	for i, f := range v.Failures {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}
