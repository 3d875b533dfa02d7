// Command riotchaos searches disruption-schedule space for requirement
// violations, minimizes what it finds, and replays the committed corpus
// as a regression suite.
//
// Usage:
//
//	riotchaos search -arch ML1 -budget 100 -parallel 4 [-min-events 3] [-corpus DIR]
//	riotchaos shrink -in schedule.json -arch ML1 [-out ce.json]
//	riotchaos replay -corpus DIR [-parallel 4] [-explain]
//	riotchaos verify -corpus DIR [-parallel 4] [-explain] [-flight-dir DIR]
//	riotchaos refresh -corpus DIR
//	riotchaos realnet -corpus DIR [-match SUBSTR] [-limit N] [-profile default|hardened|both|none] [-scale 0.1] [-city] [-city-entry NAME] [-explain]
//
// search judges -budget candidate schedules (deterministically derived
// from -seed) against the oracle and delta-debugs every violation to a
// minimal counterexample; -min-events floors the generated schedules so
// post-hardening campaigns hunt fault combinations instead of
// re-finding single events; with -corpus the deduplicated minimal
// counterexamples are written there as replayable JSON artifacts.
// shrink minimizes one failing schedule read from a fault.Schedule JSON
// file. replay re-runs every committed counterexample and verifies both
// the expected failure kinds and a byte-identical journal hash, serially
// or with -parallel workers — the result is the same either way. With
// -explain each entry also prints the incident timeline of the run it
// just replayed (fault → detection → reaction → recovery, R(t), MTTD/
// MTTR); every entry is a run the oracle failed, so an explanation with
// no incidents fails the replay.
// verify replays the corpus against the hardened scenario profile
// (core.ScenarioConfig.Hardened: island mode, placement spreading,
// backup actuators, sticky failover) and checks each entry against its
// `expect` field: hardened ML4 must fix its partition-island and
// actuator-loss entries, while ML1 entries must still fail — the
// maturity ordering the paper claims. With -explain each entry also
// prints the incident timeline of its hardened run; with
// -flight-dir, entries that still fail hardened dump a flight-recorder
// artifact (the moments leading up to the failure) there.
// realnet replays corpus entries on real loopback UDP sockets at a
// wall-clock time scale: the entry's topology boots live, every fault
// kind arms on wall timers (skipped arms fail the run), and the oracle
// judges outcomes — default-profile runs must still fail, hardened runs
// must match their `expect` field; -city additionally boots the city
// smoke tier live under hardened ML4, replays the -city-entry corpus
// schedule against it at the entry's horizon, and requires the city to
// survive the oracle.
// refresh re-runs every entry under the default profile and re-records
// its journal hash, goal persistence and hash-suffixed file name — the
// maintained path after an intentional behavioral change (e.g. a wire-
// protocol rework) moves every hash; entries whose recorded failures no
// longer reproduce abort the refresh and must be re-minimized instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/observatory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: riotchaos <search|shrink|replay|verify|refresh|realnet> [flags]")
	}
	switch args[0] {
	case "search":
		return runSearch(args[1:], out)
	case "shrink":
		return runShrink(args[1:], out)
	case "replay":
		return runReplay(args[1:], out)
	case "verify":
		return runVerify(args[1:], out)
	case "refresh":
		return runRefresh(args[1:], out)
	case "realnet":
		return runRealnet(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want search, shrink, replay, verify, refresh or realnet)", args[0])
	}
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

// oracleFlags registers the flags shared by search and shrink and
// returns a builder resolving them into a chaos.Config.
func oracleFlags(fs *flag.FlagSet) func() (chaos.Config, error) {
	arch := fs.String("arch", "ML4", "architecture maturity level under test: ML1..ML4")
	zones := fs.Int("zones", 4, "number of zones")
	duration := fs.Duration("duration", 6*time.Minute, "virtual run duration per candidate")
	seed := fs.Int64("scenario-seed", 1, "simulation seed of the scenario itself")
	floor := fs.Float64("floor", chaos.DefaultMinPersistence,
		"goal-persistence floor R; below it a run fails (negative disables)")
	return func() (chaos.Config, error) {
		a, err := core.ParseArchetype(*arch)
		if err != nil {
			return chaos.Config{}, err
		}
		sc := core.DefaultScenario()
		sc.Zones = *zones
		sc.Duration = *duration
		sc.Seed = *seed
		if err := sc.Validate(); err != nil {
			return chaos.Config{}, fmt.Errorf("-%w", err) // the flags are named like the settings
		}
		return chaos.Config{Scenario: sc, Archetype: a, MinPersistence: *floor}, nil
	}
}

func runSearch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotchaos search", flag.ContinueOnError)
	cfgOf := oracleFlags(fs)
	budget := fs.Int("budget", 50, "number of candidate schedules to evaluate")
	parallel := fs.Int("parallel", 1, "worker count (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "search seed (candidate derivation)")
	minEvents := fs.Int("min-events", 0, "floor on events per candidate schedule (multi-fault campaigns)")
	corpusDir := fs.String("corpus", "", "write deduplicated minimal counterexamples to this directory")
	verbose := fs.Bool("v", false, "stream chaos.* progress events")
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg, err := cfgOf()
	if err != nil {
		return err
	}
	cfg.MinEvents = *minEvents
	if *verbose {
		cfg.Bus = obs.NewBus(nil)
		sub := cfg.Bus.SubscribeFunc(func(ev obs.Event) {
			fmt.Fprintf(out, "# %-20s %s\n", ev.Kind, ev.Detail)
		})
		defer sub.Close()
	}

	res, err := chaos.Search(cfg, *seed, *budget, *parallel)
	if err != nil {
		return err
	}
	found := chaos.DedupFound(res.Found)
	fmt.Fprintf(out, "search: arch=%s budget=%d seed=%d — %d violation(s), %d distinct, %d oracle runs\n",
		cfg.Archetype.ShortName(), res.Budget, *seed, len(res.Found), len(found), res.OracleRuns)
	for _, f := range found {
		sr := f.Minimal
		fmt.Fprintf(out, "\ncandidate %d: %s\n", f.Index, sr.Verdict)
		fmt.Fprintf(out, "  R(goal)=%.3f  events %d→%d (shrunk in %d runs)\n",
			sr.Verdict.Report.GoalPersistence, sr.FromEvents, sr.ToEvents, sr.Runs)
		fmt.Fprint(out, indent(sr.Schedule.String()))
	}
	if *corpusDir != "" {
		for _, f := range found {
			ce := chaos.NewCounterexample(cfg, f.Minimal)
			ce.Found = fmt.Sprintf("riotchaos search -seed %d -budget %d, candidate %d", *seed, *budget, f.Index)
			path, err := ce.WriteFile(*corpusDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "\nwrote %s\n", path)
		}
	}
	return nil
}

func runShrink(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotchaos shrink", flag.ContinueOnError)
	cfgOf := oracleFlags(fs)
	in := fs.String("in", "", "failing schedule to minimize (fault.Schedule JSON)")
	outPath := fs.String("out", "", "write the minimized counterexample JSON here")
	budget := fs.Int("budget", chaos.DefaultShrinkBudget, "oracle-run budget for shrinking")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("shrink: -in is required")
	}
	cfg, err := cfgOf()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var s fault.Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("shrink: %s: %w", *in, err)
	}
	oracle := chaos.NewOracle(cfg)
	v := oracle.Run(&s)
	if !v.Failed() {
		return fmt.Errorf("shrink: schedule in %s passes the oracle; nothing to minimize", *in)
	}
	sr := chaos.Shrink(oracle, &s, v, *budget)
	fmt.Fprintf(out, "shrink: %s\n  events %d→%d in %d oracle runs\n",
		sr.Verdict, sr.FromEvents, sr.ToEvents, sr.Runs)
	fmt.Fprint(out, indent(sr.Schedule.String()))
	if *outPath != "" {
		ce := chaos.NewCounterexample(cfg, sr)
		ce.Found = fmt.Sprintf("riotchaos shrink -in %s", *in)
		data, err := json.MarshalIndent(ce, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	return nil
}

func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotchaos replay", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "corpus/chaos", "counterexample corpus directory")
	parallel := fs.Int("parallel", 1, "worker count (0 = GOMAXPROCS)")
	explain := fs.Bool("explain", false, "print an incident timeline per entry; an entry with no incidents fails")
	if err := parse(fs, args); err != nil {
		return err
	}
	ces, err := chaos.LoadCorpus(*corpusDir)
	if err != nil {
		return err
	}
	if len(ces) == 0 {
		return fmt.Errorf("replay: no counterexamples in %s", *corpusDir)
	}
	results, err := chaos.ReplayAll(ces, *parallel)
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(out, "FAIL  %s: %v\n", r.Name, r.Err)
		} else {
			fmt.Fprintf(out, "ok    %s\n", r.Name)
		}
		if *explain && r.Journal != nil {
			cfg, _ := ces[i].Config() // LoadCorpus has built every entry's config
			// Every entry pinned a run the oracle failed: an explanation
			// without incidents has lost sight of what the oracle saw.
			if a := explainRun(out, r.Journal, cfg.Scenario); len(a.Incidents) == 0 && err == nil {
				err = fmt.Errorf("%s: no incidents in analysis", r.Name)
			}
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d counterexample(s): all reproduce byte-identically\n", len(results))
	return nil
}

func runVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotchaos verify", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "corpus/chaos", "counterexample corpus directory")
	parallel := fs.Int("parallel", 1, "worker count (0 = GOMAXPROCS)")
	explain := fs.Bool("explain", false, "print an incident timeline per entry (of the hardened run)")
	flightDir := fs.String("flight-dir", "", "dump flight-recorder artifacts here for entries that still fail hardened")
	if err := parse(fs, args); err != nil {
		return err
	}
	ces, err := chaos.LoadCorpus(*corpusDir)
	if err != nil {
		return err
	}
	if len(ces) == 0 {
		return fmt.Errorf("verify: no counterexamples in %s", *corpusDir)
	}
	results, err := chaos.VerifyAllObserved(ces, *parallel, chaos.VerifyOptions{FlightDir: *flightDir})
	fixed := 0
	for i, r := range results {
		mark := "ok  "
		if r.Err != nil {
			mark = "FAIL"
		}
		if r.Status == chaos.ExpectFixed {
			fixed++
		}
		fmt.Fprintf(out, "%s  %-12s %-44s R=%.3f (was %.3f) expect=%s\n",
			mark, r.Status, r.Name, r.R, r.RecordedR, r.Expect)
		if r.Detail != "" {
			fmt.Fprintf(out, "      %s\n", r.Detail)
		}
		if *explain && r.Journal != nil {
			cfg, _ := ces[i].Config() // LoadCorpus has built every entry's config
			explainRun(out, r.Journal, cfg.Scenario)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "verified %d counterexample(s) against the hardened profile: %d fixed, %d still-fail — all as expected\n",
		len(results), fixed, len(results)-fixed)
	return nil
}

func runRefresh(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotchaos refresh", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "corpus/chaos", "counterexample corpus directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	ces, err := chaos.LoadCorpus(*corpusDir)
	if err != nil {
		return err
	}
	if len(ces) == 0 {
		return fmt.Errorf("refresh: no counterexamples in %s", *corpusDir)
	}
	refreshed := 0
	for _, ce := range ces {
		oldName := ce.Name
		changed, err := ce.Refresh()
		if err != nil {
			return err
		}
		if !changed {
			fmt.Fprintf(out, "ok         %s\n", ce.Name)
			continue
		}
		if _, err := ce.WriteFile(*corpusDir); err != nil {
			return err
		}
		if ce.Name != oldName {
			if err := os.Remove(filepath.Join(*corpusDir, oldName+".json")); err != nil {
				return err
			}
		}
		refreshed++
		fmt.Fprintf(out, "refreshed  %s -> %s (R=%.3f)\n", oldName, ce.Name, ce.GoalPersistence)
	}
	fmt.Fprintf(out, "refreshed %d of %d counterexample(s)\n", refreshed, len(ces))
	return nil
}

// explainRun prints the incident analysis of one run's journal,
// indented under its row, over the scenario's horizon and zone count,
// and returns it.
func explainRun(out io.Writer, journal []core.RunEvent, sc core.ScenarioConfig) observatory.Analysis {
	a := observatory.Analyze(journal, observatory.Options{Duration: sc.Duration, Zones: sc.Zones})
	fmt.Fprint(out, indent(observatory.FormatAnalysis(a)))
	return a
}

// indent prefixes every line with four spaces.
func indent(s string) string {
	if s == "" {
		return s
	}
	var b []byte
	for _, line := range splitLines(s) {
		b = append(b, "    "...)
		b = append(b, line...)
		b = append(b, '\n')
	}
	return string(b)
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
