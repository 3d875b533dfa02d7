package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
)

func TestSearchFindsShrinksAndSavesCorpus(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"search", "-arch", "ML1", "-budget", "10", "-parallel", "2",
		"-duration", "4m", "-corpus", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "violation(s)") || strings.Contains(out.String(), " 0 violation(s)") {
		t.Fatalf("search found nothing:\n%s", out.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files written (err=%v)", err)
	}

	// The saved corpus must replay byte-identically, serially and with
	// 4 workers.
	for _, parallel := range []string{"1", "4"} {
		var rep strings.Builder
		if err := run([]string{"replay", "-corpus", dir, "-parallel", parallel}, &rep); err != nil {
			t.Fatalf("replay -parallel %s: %v\n%s", parallel, err, rep.String())
		}
		if !strings.Contains(rep.String(), "all reproduce byte-identically") {
			t.Fatalf("replay -parallel %s output:\n%s", parallel, rep.String())
		}
	}
}

func TestShrinkSubcommand(t *testing.T) {
	dir := t.TempDir()
	s := &fault.Schedule{}
	s.Crash(time.Minute, "gw-0", 0)
	s.UpgradeStack(30*time.Second, "gw-1")
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "sched.json")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ce := filepath.Join(dir, "min.json")
	var out strings.Builder
	if err := run([]string{"shrink", "-arch", "ML1", "-duration", "4m", "-in", in, "-out", ce}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "events 2→1") {
		t.Fatalf("shrink output:\n%s", out.String())
	}
	var rep strings.Builder
	if err := run([]string{"replay", "-corpus", dir}, &rep); err == nil {
		t.Fatal("replay accepted sched.json (no schema) as a counterexample")
	}
	// Drop the raw schedule; the minimized counterexample alone replays.
	if err := os.Remove(in); err != nil {
		t.Fatal(err)
	}
	rep.Reset()
	if err := run([]string{"replay", "-corpus", dir}, &rep); err != nil {
		t.Fatalf("replay: %v\n%s", err, rep.String())
	}
}

func TestShrinkRejectsPassingSchedule(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(in, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"shrink", "-arch", "ML1", "-duration", "4m", "-in", in}, &out)
	if err == nil || !strings.Contains(err.Error(), "passes the oracle") {
		t.Fatalf("err = %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	var out strings.Builder
	// The usage line lists every subcommand.
	if err := run(nil, &out); err == nil || err.Error() != "usage: riotchaos <search|shrink|replay|verify|refresh|realnet> [flags]" {
		t.Fatalf("no subcommand: err = %v, want the usage line naming all six subcommands", err)
	}
	if err := run([]string{"explode"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"search", "-arch", "ML9"}, &out); err == nil {
		t.Fatal("bad archetype accepted")
	}
	if err := run([]string{"search", "-budget", "0"}, &out); err == nil {
		t.Fatal("zero budget accepted")
	}
	if err := run([]string{"shrink"}, &out); err == nil {
		t.Fatal("shrink without -in accepted")
	}
	if err := run([]string{"replay", "-corpus", "/does/not/exist"}, &out); err == nil {
		t.Fatal("empty corpus accepted")
	}
	// A scenario no run can honour is refused before any candidate runs:
	// a negative duration used to panic in the generator, negative zones
	// came back as makeslice panics reported as counterexamples, and 0
	// zones silently ran the 4-zone default.
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-duration", []string{"search", "-duration", "-1s", "-budget", "1"}},
		{"-zones", []string{"search", "-zones", "-3", "-budget", "2"}},
		{"-zones", []string{"search", "-zones", "0", "-budget", "1"}},
		{"-duration", []string{"shrink", "-duration", "0s", "-in", "/does/not/exist"}},
	} {
		if err := run(c.args, &out); err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Fatalf("%v: err = %v, want an error naming %s", c.args, err, c.flag)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected command line still ran something:\n%s", out.String())
	}
	// A stray word would drop every flag after it; each subcommand
	// rejects it by name before doing any work.
	for _, sub := range []string{"search", "shrink", "replay", "verify", "refresh", "realnet"} {
		if err := run([]string{sub, "corpus", "-corpus", "/does/not/exist"}, &out); err == nil || !strings.Contains(err.Error(), `"corpus"`) {
			t.Fatalf("%s with a stray argument: err = %v, want an error naming it", sub, err)
		}
	}
}

func TestVerifySubcommand(t *testing.T) {
	dir := t.TempDir()
	cfg, err := verifyFixtureConfig()
	if err != nil {
		t.Fatal(err)
	}
	o := chaos.NewOracle(cfg)
	s := &fault.Schedule{}
	s.Crash(time.Minute, "gw-0", 0)
	v := o.Run(s)
	if !v.Failed() {
		t.Fatal("fixture schedule passes")
	}
	ce := chaos.NewCounterexample(cfg, chaos.Shrink(o, s, v, 0))
	// ML1 has no mechanism against a dead gateway: still-fails (the
	// empty-Expect default) must verify green.
	if _, err := ce.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"verify", "-corpus", dir, "-parallel", "2"}, &out); err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 fixed, 1 still-fail — all as expected") {
		t.Fatalf("verify output:\n%s", out.String())
	}

	// Declaring the same entry fixed must fail the run.
	ce.Expect = chaos.ExpectFixed
	if _, err := ce.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"verify", "-corpus", dir}, &out)
	if err == nil || !strings.Contains(err.Error(), "corpus expects fixed") {
		t.Fatalf("expectation mismatch not reported: %v\n%s", err, out.String())
	}
}

// TestReplayExplainsEveryEntry: every committed entry pinned a run the
// oracle failed, so each explanation must hold incidents.
func TestReplayExplainsEveryEntry(t *testing.T) {
	corpus := filepath.Join("..", "..", "corpus", "chaos")
	if _, err := os.Stat(corpus); err != nil {
		t.Skip("no corpus checked out")
	}
	var out strings.Builder
	if err := run([]string{"replay", "-corpus", corpus, "-explain"}, &out); err != nil {
		t.Fatalf("replay -explain: %v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), "\n    incidents: "); got != 12 {
		t.Fatalf("explained %d entries, want 12:\n%s", got, out.String())
	}
}

// TestExplainRunUsesScenarioHorizon: the analysis spans the scenario's
// duration, not just up to the journal's last event.
func TestExplainRunUsesScenarioHorizon(t *testing.T) {
	sc := core.DefaultScenario()
	sc.Duration = 6 * time.Minute
	journal := []core.RunEvent{
		{At: 10 * time.Second, Kind: core.EventFault, Detail: "crash gw-0"},
		{At: 14 * time.Second, Kind: core.EventViolation, Detail: "zone 0 data stale at controller"},
	}
	var out strings.Builder
	explainRun(&out, journal, sc)
	if want := "    run: 6m0s, 4 zone(s), 1 fault event(s)\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("explanation header:\n%s\nwant %q", out.String(), want)
	}
}

// verifyFixtureConfig is the short ML1 scenario the verify test pins.
func verifyFixtureConfig() (chaos.Config, error) {
	arch, err := core.ParseArchetype("ML1")
	if err != nil {
		return chaos.Config{}, err
	}
	sc := core.DefaultScenario()
	sc.Duration = 4 * time.Minute
	return chaos.Config{Scenario: sc, Archetype: arch}, nil
}
