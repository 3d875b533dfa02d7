package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// corpusFile reads one committed corpus entry.
func corpusFile(tb testing.TB, name string) string {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "corpus", "chaos", name))
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// unrunnable are edits of a committed entry that no replay can run:
// each used to load, then panic, pass or fail for another reason.
var unrunnable = []struct{ field, from, to string }{
	{"zones", `"zones": 4`, `"zones": -3`},
	{"temp_sensors_per_zone", `"temp_sensors_per_zone": 2`, `"temp_sensors_per_zone": -1`},
	{"duration", `"duration": "6m0s"`, `"duration": "-5m"`},
	{"schedule", `"schedule": [`, `"schedule": null, "unused": [`},
}

// TestLoadCorpusRejectsUnrunnableEntries loads each edit of
// ml1-low-persistence-3a94bb47 on its own and requires an error naming
// the file and the field.
func TestLoadCorpusRejectsUnrunnableEntries(t *testing.T) {
	const name = "ml1-low-persistence-3a94bb47.json"
	orig := corpusFile(t, name)
	for _, u := range unrunnable {
		if !strings.Contains(orig, u.from) {
			t.Fatalf("%s no longer contains %s", name, u.from)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Replace(orig, u.from, u.to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCorpus(dir)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), u.field) {
			t.Errorf("%s: LoadCorpus err = %v, want one naming %s and %s", u.to, err, path, u.field)
		}
	}
}

// FuzzCorpusEntry holds the corpus decoder to two properties on any
// input: decoding with load-time validation never panics, and an entry
// it accepts builds with core.NewSystem without a panic. Building is
// checked up to 8 zones and 64 sensors per zone and cloudlets; larger
// entries are valid but too big to build once per input. The seeds are
// the committed corpus and the unrunnable edits above.
func FuzzCorpusEntry(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "corpus", "chaos", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus entries to seed from (%v)", err)
	}
	for _, path := range paths {
		data := corpusFile(f, filepath.Base(path))
		f.Add([]byte(data))
		for _, u := range unrunnable {
			f.Add([]byte(strings.Replace(data, u.from, u.to, 1)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ce, err := decodeCounterexample(data)
		if err != nil || ce.Zones > 8 || ce.TempSensorsPerZone > 64 || ce.Cloudlets > 64 {
			return
		}
		cfg, err := ce.Config()
		if err != nil {
			t.Fatalf("accepted entry has no config: %v", err)
		}
		core.NewSystem(cfg.Scenario, cfg.Archetype)
	})
}
