package chaos

import (
	"fmt"

	"repro/internal/core"
)

// LiveOptions tunes a realnet corpus replay.
type LiveOptions struct {
	// TimeScale compresses virtual time onto the wall clock (see
	// core.LiveConfig). Zero selects 0.1: a 6-minute corpus entry
	// replays in ~36 s of wall time.
	TimeScale float64
	// Hardened replays against the hardened scenario profile instead
	// of the default profile the entry was found under.
	Hardened bool
}

// LiveOutcome is one corpus entry's realnet replay result.
type LiveOutcome struct {
	Name string
	// Expect is the entry's declared hardened expectation
	// (still-fails/fixed); for default-profile replays a counterexample
	// is by definition expected to fail.
	Expect string
	// Status classifies the live run like Verify does: still-fails
	// when the oracle flagged it, fixed otherwise.
	Status  string
	Verdict Verdict
	Report  core.Report
	Info    core.LiveInfo
	// Err is set on boot/config errors or when a schedule event crashes
	// or recovers a node the topology lacks — a corpus entry must replay
	// in full.
	Err error
}

// ReplayLive replays the counterexample's schedule on real UDP sockets:
// the same topology and protocols boot as loopback processes, the
// schedule arms on wall-clock timers, and the oracle judges the
// outcome. No journal hash is compared — live runs carry no bit-level
// determinism contract (DESIGN.md §14); the properties under test are
// outcome-level, exactly the ones the oracle checks in simulation.
func (ce *Counterexample) ReplayLive(opts LiveOptions) LiveOutcome {
	out := LiveOutcome{Name: ce.Name, Expect: ce.expectation()}
	cfg, err := ce.Config()
	if !opts.Hardened {
		out.Expect = ExpectStillFails
	} else if err == nil {
		cfg, err = ce.HardenedConfig()
	}
	if err != nil {
		out.Err = err
		return out
	}
	scale := opts.TimeScale
	if scale <= 0 {
		scale = 0.1
	}
	sc := cfg.Scenario
	sc.Preset = core.FaultsNone
	sc.Faults = ce.Schedule
	sys, err := core.NewLiveSystem(sc, cfg.Archetype, core.LiveConfig{TimeScale: scale})
	if err != nil {
		out.Err = err
		return out
	}
	report, info, err := sys.RunLive()
	out.Report, out.Info = report, info
	if err != nil {
		out.Err = err
		return out
	}
	if info.Skipped > 0 {
		out.Err = fmt.Errorf("counterexample %s: %d schedule event(s) target a node outside the topology", ce.Name, info.Skipped)
		return out
	}
	out.Verdict = NewOracle(cfg).JudgeLive(report, sys.Journal())
	if out.Verdict.Failed() {
		out.Status = ExpectStillFails
	} else {
		out.Status = ExpectFixed
	}
	return out
}
