package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRunSingleArchetype(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-arch", "ML1", "-duration", "2m", "-preset", "none"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ML1-silo") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunMatrix(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-matrix", "-duration", "2m", "-preset", "none"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ML1-silo", "ML2-cloud", "ML3-edge", "ML4-resilient"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %s in output:\n%s", want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-arch", "ML9"}, &out); err == nil {
		t.Fatal("bad archetype accepted")
	}
	if err := run([]string{"-preset", "bogus"}, &out); err == nil {
		t.Fatal("bad preset accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-shards", []string{"-shards", "-1", "-duration", "1m"}},
		{"-tier", []string{"-tier", "mega"}},
		{"-zones", []string{"-zones", "-1"}},
		{"-zones", []string{"-tier", "city-smoke", "-zones", "0"}},
		{"-duration", []string{"-duration", "-1m"}},
		{"-duration", []string{"-tier", "city-smoke", "-duration", "0s"}},
		{"-events", []string{"-matrix", "-events", "-duration", "1m"}},
	} {
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Fatalf("%v: err = %v, want an error naming %s", c.args, err, c.flag)
		}
	}
	// "matrix" for "-matrix": flag would stop there and run one ML4
	// with no -shards and no -hash.
	if err := run([]string{"-tier", "city-smoke", "matrix", "-shards", "2", "-hash"}, &out); err == nil || !strings.Contains(err.Error(), `"matrix"`) {
		t.Fatalf("stray argument: err = %v, want an error naming it", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected command line still ran something:\n%s", out.String())
	}
}

// TestNamedTierKeepsItsPreset: without -preset a city tier runs its
// own heavy schedule, not the default tier's standard one.
func TestNamedTierKeepsItsPreset(t *testing.T) {
	hash := func(args ...string) string {
		t.Helper()
		return journalHash(t, append([]string{"-tier", "city-smoke", "-arch", "ML4"}, args...)...)
	}
	own, heavy, standard := hash(), hash("-preset", "heavy"), hash("-preset", "standard")
	if own != heavy || own == standard {
		t.Fatalf("city-smoke hashes %.12s with no -preset, %.12s with heavy, %.12s with standard: want the heavy run", own, heavy, standard)
	}
}

// journalHash runs riotsim with args plus -hash and returns the hash.
func journalHash(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-hash"}, args...), &out); err != nil {
		t.Fatal(err)
	}
	_, h, ok := strings.Cut(out.String(), "journal ")
	if !ok {
		t.Fatalf("no journal hash in output:\n%s", out.String())
	}
	h, _, _ = strings.Cut(h, "\n")
	return h
}

func TestRunExplains(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-arch", "ML1", "-duration", "8m", "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	report, explanation, ok := strings.Cut(out.String(), "\nrun: 8m0s, 4 zone(s)")
	if !ok || !strings.Contains(report, "ML1-silo") {
		t.Fatalf("want the report, then the explanation of the 8-minute run:\n%s", out.String())
	}
	for _, want := range []string{"incidents:", "R(t) over", "MTTR"} {
		if !strings.Contains(explanation, want) {
			t.Fatalf("explanation missing %q:\n%s", want, explanation)
		}
	}

	// Explaining only reads the journal.
	plain := []string{"-arch", "ML4", "-duration", "2m"}
	if a, b := journalHash(t, plain...), journalHash(t, append(plain, "-explain")...); a != b {
		t.Fatalf("-explain moved the journal hash: %s vs %s", a, b)
	}

	if err := run([]string{"-matrix", "-explain", "-duration", "1m"}, &out); err == nil || !strings.Contains(err.Error(), "-explain") {
		t.Fatalf("-matrix -explain: err = %v, want an error naming -explain", err)
	}
}

// TestRunExplainTraceOverlay: with -trace the incident overlay shares
// the run's trace file.
func TestRunExplainTraceOverlay(t *testing.T) {
	var out strings.Builder
	path := filepath.Join(t.TempDir(), "run.json")
	if err := run([]string{"-arch", "ML1", "-duration", "8m", "-explain", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Span uint64 `json:"span"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var incidents, runSpans int
	for _, ev := range trace.TraceEvents {
		if strings.HasPrefix(ev.Name, "incident.") {
			incidents++
		}
		if strings.HasPrefix(ev.Name, "core.") && ev.Args.Span != 0 {
			runSpans++ // the run's causal fault/violation/recovery spans
		}
	}
	if incidents == 0 || runSpans == 0 {
		t.Fatalf("trace holds %d incident and %d run spans, want both", incidents, runSpans)
	}
}

// TestRunHardened: -hardened is the default tier's config with every
// resilience knob on, and it changes the run.
func TestRunHardened(t *testing.T) {
	cfg := core.DefaultScenario()
	cfg.Duration = 2 * time.Minute
	sys := core.NewSystem(cfg.Hardened(), core.ML4)
	sys.Run()
	args := []string{"-arch", "ML4", "-duration", "2m"}
	hard := journalHash(t, append(args, "-hardened")...)
	if want := sys.JournalHash(); hard != want {
		t.Fatalf("-hardened hash %s, want %s", hard, want)
	}
	if plain := journalHash(t, args...); plain == hard {
		t.Fatalf("-hardened left the journal unchanged (%s)", plain)
	}
}

func TestParseArchetype(t *testing.T) {
	if _, err := core.ParseArchetype("ml3"); err != nil {
		t.Fatal("lowercase archetype rejected")
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out strings.Builder
	err := run([]string{"-arch", "ML4", "-duration", "2m", "-cpuprofile", cpu, "-memprofile", mem}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s: err = %v, want a non-empty file", filepath.Base(path), err)
		}
	}
	if err := run([]string{"-matrix", "-duration", "1m", "-cpuprofile", cpu}, &out); err == nil {
		t.Fatal("-cpuprofile accepted with -matrix")
	}
	if err := run([]string{"-duration", "1m", "-cpuprofile", filepath.Join(dir, "missing", "cpu.out")}, &out); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}
