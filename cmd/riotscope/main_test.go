package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExplainsDisruptedScenario(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"run", "-arch", "ML1", "-duration", "8m", "-require-incidents"}, &sb)
	if err != nil {
		t.Fatalf("riotscope run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"default (ML1)", "incidents:", "R(t) over", "MTTR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// A stray word would drop every flag after it (here the one that
	// makes the command a check); both subcommands reject it by name.
	for _, args := range [][]string{
		{"run", "-arch", "ML1", "extra", "-require-incidents"},
		{"corpus", "extra", "-require-incidents"},
	} {
		if err := run(args, &sb); err == nil || !strings.Contains(err.Error(), `"extra"`) {
			t.Fatalf("run(%q): err = %v, want an error naming the stray argument", args, err)
		}
	}
	// 0 keeps the scenario's own value; a negative one is an error, not
	// another way to say 0.
	for flag, args := range map[string][]string{
		"-zones":    {"run", "-zones", "-3"},
		"-duration": {"run", "-duration", "-1s"},
		"-scenario": {"run", "-scenario", "mega"},
	} {
		if err := run(args, &sb); err == nil || !strings.HasPrefix(err.Error(), flag) {
			t.Fatalf("run(%q): err = %v, want an error naming %s", args, err, flag)
		}
	}
}

func TestRunJSONRoundTrips(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"run", "-arch", "ML1", "-duration", "8m", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var exps []struct {
		Name     string  `json:"name"`
		R        float64 `json:"goal_persistence"`
		Analysis struct {
			Incidents []json.RawMessage `json:"incidents"`
		} `json:"analysis"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &exps); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, sb.String())
	}
	if len(exps) != 1 || exps[0].Name != "default" || len(exps[0].Analysis.Incidents) == 0 {
		t.Fatalf("unexpected JSON shape: %+v", exps)
	}
}

func TestCorpusExplainsEveryEntry(t *testing.T) {
	corpus := filepath.Join("..", "..", "corpus", "chaos")
	if _, err := os.Stat(corpus); err != nil {
		t.Skip("no corpus checked out")
	}
	var sb strings.Builder
	// Default knobs: every entry pinned a failing run, so every
	// explanation must contain incidents.
	err := run([]string{"corpus", "-corpus", corpus, "-require-incidents"}, &sb)
	if err != nil {
		t.Fatalf("riotscope corpus: %v\n%s", err, sb.String())
	}
	if got := strings.Count(sb.String(), "incidents:"); got != 12 {
		t.Fatalf("explained %d entries, want 12:\n%s", got, sb.String())
	}
}

func TestCorpusHardenedReportsStatus(t *testing.T) {
	corpus := filepath.Join("..", "..", "corpus", "chaos")
	if _, err := os.Stat(corpus); err != nil {
		t.Skip("no corpus checked out")
	}
	var sb strings.Builder
	err := run([]string{"corpus", "-corpus", corpus, "-hardened",
		"-entry", "ml1-low-persistence-3a94bb47"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "still-fails (expect still-fails)") {
		t.Fatalf("hardened status missing:\n%s", sb.String())
	}
}

func TestTraceOverlayFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlay.json")
	var sb strings.Builder
	err := run([]string{"run", "-arch", "ML1", "-duration", "8m", "-trace", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatalf("trace overlay is not JSON: %v", err)
	}
	if _, ok := obj["traceEvents"]; !ok {
		t.Fatalf("trace overlay missing traceEvents: %s", data)
	}
}
