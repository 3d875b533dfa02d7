// Command riotscope explains runs: it derives incident records (fault →
// detection → reaction → recovery, with MTTD/TTR), per-zone R(t)
// availability timelines, and aggregate MTTD/MTTR percentiles from a
// simulated run's journal, and renders them as text, JSON, or a Chrome
// trace-event overlay. It is the repository's answer to "R was 0.83 —
// what actually happened?".
//
// Usage:
//
//	riotscope run [-arch ML4] [-scenario default|city|city-smoke|metro|metro-smoke]
//	              [-zones N] [-duration D] [-seed N] [-hardened] [-windows N] [-all-zones]
//	              [-format text|json] [-trace FILE] [-require-incidents]
//	riotscope corpus [-corpus DIR] [-entry NAME] [-hardened] [-windows N]
//	              [-all-zones] [-format text|json] [-trace FILE] [-require-incidents]
//
// run executes a fresh scenario under its standard disruption schedule
// and explains it. corpus replays committed chaos counterexamples —
// by default under the knobs they were found with (the run the entry
// pins), with -hardened under the full resilience profile `riotchaos
// verify` gates on — and explains each one. -trace writes a Chrome
// trace-event overlay (incidents as spans per zone, faults and
// reactions as instants) loadable in chrome://tracing or
// ui.perfetto.dev; with corpus it requires -entry. -require-incidents
// exits non-zero when an explanation contains no incidents, so CI can
// assert the explainer still sees what the oracle saw. The analysis
// only reads journals: explaining a run never changes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/observatory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotscope:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: riotscope <run|corpus> [flags]")
	}
	switch args[0] {
	case "run":
		return runScenario(args[1:], out)
	case "corpus":
		return runCorpus(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run or corpus)", args[0])
	}
}

// renderFlags registers the output flags shared by both subcommands.
type renderFlags struct {
	windows          *int
	allZones         *bool
	format           *string
	tracePath        *string
	requireIncidents *bool
}

func addRenderFlags(fs *flag.FlagSet) renderFlags {
	return renderFlags{
		windows:          fs.Int("windows", 0, "R(t) timeline buckets (0 = 24)"),
		allZones:         fs.Bool("all-zones", false, "list fully-available zones in the timeline too"),
		format:           fs.String("format", "text", "output format: text or json"),
		tracePath:        fs.String("trace", "", "write a Chrome trace-event overlay of the analysis to this file"),
		requireIncidents: fs.Bool("require-incidents", false, "fail when an explanation contains no incidents"),
	}
}

// explanation is one named analysis, the unit both subcommands emit.
type explanation struct {
	Name      string `json:"name"`
	Archetype string `json:"archetype"`
	Hardened  bool   `json:"hardened"`
	// Expect/Status carry the corpus expectation check ("" for run).
	Expect   string               `json:"expect,omitempty"`
	Status   string               `json:"status,omitempty"`
	R        float64              `json:"goal_persistence"`
	Analysis observatory.Analysis `json:"analysis"`
}

func (rf renderFlags) render(out io.Writer, exps []explanation) error {
	switch *rf.format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(exps); err != nil {
			return err
		}
	case "text":
		for _, e := range exps {
			header := fmt.Sprintf("%s (%s", e.Name, e.Archetype)
			if e.Hardened {
				header += ", hardened"
			}
			header += ")"
			if e.Status != "" {
				header += fmt.Sprintf(" — %s (expect %s)", e.Status, e.Expect)
			}
			fmt.Fprintf(out, "%s  R=%.3f\n", header, e.R)
			fmt.Fprint(out, observatory.FormatAnalysis(e.Analysis, *rf.allZones))
		}
	default:
		return fmt.Errorf("unknown -format %q (want text or json)", *rf.format)
	}
	if *rf.tracePath != "" {
		if len(exps) != 1 {
			return fmt.Errorf("-trace explains exactly one run (got %d; use -entry)", len(exps))
		}
		f, err := os.Create(*rf.tracePath)
		if err != nil {
			return err
		}
		if err := observatory.WriteTraceOverlay(exps[0].Analysis, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote trace overlay %s\n", *rf.tracePath)
	}
	if *rf.requireIncidents {
		for _, e := range exps {
			if len(e.Analysis.Incidents) == 0 {
				return fmt.Errorf("%s: no incidents in analysis", e.Name)
			}
		}
	}
	return nil
}

// parse parses args and rejects leftover positional arguments: flag
// stops at the first non-flag word, so without this a stray word
// silently drops every flag after it.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

func runScenario(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotscope run", flag.ContinueOnError)
	arch := fs.String("arch", "ML4", "architecture maturity level: ML1..ML4")
	scenario := fs.String("scenario", "default", "base scenario: default, city, city-smoke, metro or metro-smoke")
	zones := fs.Int("zones", 0, "override zone count (0 = scenario default)")
	duration := fs.Duration("duration", 0, "override run duration (0 = scenario default)")
	seed := fs.Int64("seed", 0, "override simulation seed (0 = scenario default)")
	hardened := fs.Bool("hardened", false, "enable the full resilience profile (island mode, spread, backups, sticky failover)")
	rf := addRenderFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	a, err := core.ParseArchetype(*arch)
	if err != nil {
		return err
	}
	cfg, err := core.ParseTier(*scenario)
	if err != nil {
		return fmt.Errorf("-scenario: %w", err)
	}
	if *zones != 0 {
		cfg.Zones = *zones
	}
	if *duration != 0 {
		cfg.Duration = *duration
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-%w", err) // the flags are named like the settings
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *hardened {
		cfg = cfg.Hardened()
	}

	sys := core.NewSystem(cfg, a)
	report := sys.Run()
	analysis := observatory.Analyze(sys.Journal(), observatory.Options{
		Duration: cfg.Duration, Zones: cfg.Zones, Windows: *rf.windows,
	})
	return rf.render(out, []explanation{{
		Name:      *scenario,
		Archetype: a.ShortName(),
		Hardened:  *hardened,
		R:         report.GoalPersistence,
		Analysis:  analysis,
	}})
}

func runCorpus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotscope corpus", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "corpus/chaos", "counterexample corpus directory")
	entry := fs.String("entry", "", "explain only this entry (default: every entry)")
	hardened := fs.Bool("hardened", false, "replay under the hardened profile instead of the recorded knobs")
	rf := addRenderFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	ces, err := chaos.LoadCorpus(*corpusDir)
	if err != nil {
		return err
	}
	if *entry != "" {
		var match []*chaos.Counterexample
		for _, ce := range ces {
			if ce.Name == *entry {
				match = append(match, ce)
			}
		}
		if len(match) == 0 {
			return fmt.Errorf("corpus: no entry named %q in %s", *entry, *corpusDir)
		}
		ces = match
	}
	if len(ces) == 0 {
		return fmt.Errorf("corpus: no counterexamples in %s", *corpusDir)
	}

	exps := make([]explanation, 0, len(ces))
	for _, ce := range ces {
		e, err := explainEntry(ce, *hardened, *rf.windows)
		if err != nil {
			return err
		}
		exps = append(exps, e)
	}
	return rf.render(out, exps)
}

// explainEntry replays one counterexample and analyzes its journal.
func explainEntry(ce *chaos.Counterexample, hardened bool, windows int) (explanation, error) {
	cfg, err := ce.Config()
	if err != nil {
		return explanation{}, err
	}
	opts := observatory.Options{
		Duration: cfg.Scenario.Duration, Zones: cfg.Scenario.Zones, Windows: windows,
	}
	e := explanation{Name: ce.Name, Archetype: cfg.Archetype.ShortName(), Hardened: hardened}
	if hardened {
		res := ce.Verify()
		if res.Err != nil {
			// An expectation mismatch is still explainable; surface it in
			// Status and let the caller's corpus gates decide.
			res.Err = nil
		}
		e.Expect, e.Status, e.R = res.Expect, res.Status, res.R
		e.Analysis = observatory.Analyze(res.Journal, opts)
		return e, nil
	}
	cfg.KeepJournal = true
	v := chaos.NewOracle(cfg).Run(ce.Schedule)
	e.R = v.Report.GoalPersistence
	e.Analysis = observatory.Analyze(v.Journal, opts)
	return e, nil
}
