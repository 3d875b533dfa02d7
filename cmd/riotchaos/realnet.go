package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/realnet"
)

// runRealnet replays the corpus on real loopback UDP sockets: each
// entry's topology boots as live riotnode-style endpoints, the schedule
// arms on wall-clock timers (crashes, partitions, link shaping — every
// fault kind), and the oracle judges the outcome. The expectations
// mirror `replay`/`verify` at the outcome level: default-profile runs must
// still fail (they are counterexamples), hardened runs must match each
// entry's `expect` field. Journal hashes are never compared — live runs
// carry no bit-level determinism contract (DESIGN.md §14).
func runRealnet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotchaos realnet", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "corpus/chaos", "counterexample corpus directory")
	match := fs.String("match", "", "only replay entries whose name contains this substring")
	limit := fs.Int("limit", 0, "replay at most this many entries (0 = all)")
	profile := fs.String("profile", "both", "scenario profile to replay: default, hardened, both or none (city only)")
	scale := fs.Float64("scale", 0.1, "wall-clock time scale (wall = virtual × scale)")
	city := fs.Bool("city", false, "additionally boot the city smoke tier live (hardened ML4) under a corpus entry's schedule")
	cityEntry := fs.String("city-entry", "ml4-low-persistence-af146e73", "corpus entry whose schedule the live city replays")
	explain := fs.Bool("explain", false, "print an incident timeline per live run")
	if err := parse(fs, args); err != nil {
		return err
	}
	var wantDefault, wantHardened bool
	switch *profile {
	case "default":
		wantDefault = true
	case "hardened":
		wantHardened = true
	case "both":
		wantDefault, wantHardened = true, true
	case "none":
		// Corpus replays skipped: only the -city run, if requested.
	default:
		return fmt.Errorf("realnet: -profile %q (want default, hardened, both or none)", *profile)
	}
	if !wantDefault && !wantHardened && !*city {
		return fmt.Errorf("realnet: -profile none without -city selects nothing")
	}

	ces, err := chaos.LoadCorpus(*corpusDir)
	if err != nil {
		return err
	}
	var picked []*chaos.Counterexample
	for _, ce := range ces {
		if *match != "" && !strings.Contains(ce.Name, *match) {
			continue
		}
		picked = append(picked, ce)
		if *limit > 0 && len(picked) == *limit {
			break
		}
	}
	if len(picked) == 0 && !*city {
		return fmt.Errorf("realnet: no counterexamples selected in %s", *corpusDir)
	}

	mismatches := 0
	runs := 0
	for _, ce := range picked {
		if wantDefault {
			if !replayOneLive(out, ce, chaos.LiveOptions{TimeScale: *scale}, *explain) {
				mismatches++
			}
			runs++
		}
		if wantHardened {
			if !replayOneLive(out, ce, chaos.LiveOptions{TimeScale: *scale, Hardened: true}, *explain) {
				mismatches++
			}
			runs++
		}
	}
	if *city {
		var entry *chaos.Counterexample
		for _, ce := range ces {
			if ce.Name == *cityEntry {
				entry = ce
				break
			}
		}
		if entry == nil {
			return fmt.Errorf("realnet: -city-entry %q not found in %s", *cityEntry, *corpusDir)
		}
		ok, err := runCityLive(out, entry, *scale, *explain)
		if err != nil {
			return err
		}
		if !ok {
			mismatches++
		}
		runs++
	}
	if mismatches > 0 {
		return fmt.Errorf("realnet: %d of %d live run(s) did not match expectations", mismatches, runs)
	}
	fmt.Fprintf(out, "realnet: %d live run(s) on real sockets — all as expected\n", runs)
	return nil
}

// replayOneLive runs one entry × profile and prints its row. Returns
// false on an error or expectation mismatch.
func replayOneLive(out io.Writer, ce *chaos.Counterexample, opts chaos.LiveOptions, explain bool) bool {
	prof := "default"
	expect := chaos.ExpectStillFails
	if opts.Hardened {
		prof = "hardened"
		expect = ce.Expect
		if expect == "" {
			expect = chaos.ExpectStillFails
		}
	}
	res := ce.ReplayLive(opts)
	if res.Err != nil {
		fmt.Fprintf(out, "FAIL  %-8s %-12s %-44s %v\n", prof, "error", ce.Name, res.Err)
		return false
	}
	ok := res.Status == expect
	mark := "ok  "
	if !ok {
		mark = "FAIL"
	}
	fmt.Fprintf(out, "%s  %-8s %-12s %-44s R=%.3f (sim %.3f) armed=%d skipped=%d wall=%s %s\n",
		mark, prof, res.Status, ce.Name, res.Report.GoalPersistence, ce.GoalPersistence,
		res.Info.Armed, res.Info.Skipped, res.Info.WallDuration.Round(time.Millisecond), loopSummary(res.Info.Loop))
	if !ok {
		fmt.Fprintf(out, "      expected %s, got %s: %s\n", expect, res.Status, res.Verdict)
	}
	if explain && res.Verdict.Journal != nil {
		cfg, _ := ce.Config() // ReplayLive has built it without error
		explainRun(out, res.Verdict.Journal, cfg.Scenario)
	}
	return ok
}

// loopSummary is what the cluster's loop did, for a run line: the share
// of wall time it was busy, how often it woke (events per wake is what
// one wait bought) and how late its 99th-percentile timer fired (the
// upper bound of a log2 bucket).
func loopSummary(s realnet.LoopStats) string {
	return fmt.Sprintf("loop(busy=%.0f%% wakes=%d late.p99<=%s)", 100*s.BusyFrac(), s.Wakes, s.LateQuantile(0.99))
}

// runCityLive boots the city smoke tier (hardened ML4) on real sockets
// and replays one corpus entry's schedule against it at the entry's
// recorded horizon — "the city survives its corpus": the hardened city
// must pass the same oracle the corpus was found with. The entry's
// explicit fault groups name nodes from the corpus-scale topology;
// unlisted city nodes land in the implicit complement group, exactly as
// in simulation. Returns whether the city survived.
func runCityLive(out io.Writer, ce *chaos.Counterexample, scale float64, explain bool) (bool, error) {
	sc := core.CityScenarioSmoke().Hardened()
	sc.Preset = core.FaultsNone
	sc.Faults = ce.Schedule
	if d, err := time.ParseDuration(ce.Duration); err == nil && d > 0 {
		sc.Duration = d
	}
	sys, err := core.NewLiveSystem(sc, core.ML4, core.LiveConfig{TimeScale: scale})
	if err != nil {
		return false, err
	}
	report, info, err := sys.RunLive()
	if err != nil {
		return false, err
	}
	journal := sys.Journal()
	v := chaos.NewOracle(chaos.Config{Scenario: sc, Archetype: core.ML4}).JudgeLive(report, journal)
	ok := !v.Failed() && info.Skipped == 0 && info.Armed == ce.Schedule.Len()
	mark := "ok  "
	status := "survived"
	if !ok {
		mark, status = "FAIL", "failed"
	}
	fmt.Fprintf(out, "%s  %-8s %-12s %-44s R=%.3f armed=%d skipped=%d wall=%s net(sent=%d recv=%d dropped=%d) %s\n",
		mark, "city", status, "city:"+ce.Name, report.GoalPersistence,
		info.Armed, info.Skipped, info.WallDuration.Round(time.Millisecond),
		info.Net.Sent, info.Net.Received, info.Net.Dropped, loopSummary(info.Loop))
	if !ok {
		fmt.Fprintf(out, "      %s\n", v)
	}
	if explain {
		explainRun(out, journal, sc)
	}
	return ok, nil
}
