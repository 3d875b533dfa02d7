package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
)

// CorpusSchema tags counterexample files; bump on incompatible change.
const CorpusSchema = "riotchaos/counterexample/v1"

// Counterexample is one minimized failing schedule, serialized with
// everything needed to replay it bit-for-bit: the scenario pins, the
// schedule, the expected failure kinds and the journal hash the replay
// must reproduce. Files are self-contained JSON so a corpus doubles as
// human-readable documentation of every violation ever found.
type Counterexample struct {
	Schema string `json:"schema"`
	// Name identifies the counterexample; the corpus file is Name.json.
	Name string `json:"name"`
	// Found records provenance (search seed, date) for humans.
	Found string `json:"found,omitempty"`

	// Scenario pins. Fields omitted here keep DefaultScenario values;
	// a default change that affects the run will surface as a replay
	// hash mismatch, which is exactly when the corpus needs re-minimizing.
	Archetype          string  `json:"archetype"`
	Seed               int64   `json:"seed"`
	Zones              int     `json:"zones"`
	TempSensorsPerZone int     `json:"temp_sensors_per_zone"`
	Cloudlets          int     `json:"cloudlets"`
	Duration           string  `json:"duration"`
	MinPersistence     float64 `json:"min_persistence"`

	Schedule *fault.Schedule `json:"schedule"`

	// Expected outcome.
	Failures        []FailureKind `json:"failures"`
	GoalPersistence float64       `json:"goal_persistence"`
	JournalHash     string        `json:"journal_hash"`

	// Expect states what `riotchaos verify` should see when the entry
	// replays against the *hardened* scenario profile
	// (core.ScenarioConfig.Hardened): ExpectFixed for counterexamples
	// the resilience mechanisms close, ExpectStillFails for maturity
	// gaps that are supposed to stay open (ML1 has no mechanism to fix
	// them — that ordering is the paper's Table 1 vs Table 2 claim).
	// Empty means ExpectStillFails. Plain `replay` ignores this field:
	// its contract pins the default-knob run bit-for-bit.
	Expect string `json:"expect,omitempty"`
}

// Expect values.
const (
	ExpectStillFails = "still-fails"
	ExpectFixed      = "fixed"
)

// expectation normalizes the Expect field.
func (ce *Counterexample) expectation() string {
	if ce.Expect == ExpectFixed {
		return ExpectFixed
	}
	return ExpectStillFails
}

// NewCounterexample captures a minimized search find under the given
// oracle config.
func NewCounterexample(cfg Config, sr ShrinkResult) *Counterexample {
	cfg = cfg.withDefaults()
	sc := cfg.Scenario
	if sc.Duration == 0 {
		sc.Duration = core.DefaultScenario().Duration
	}
	ce := &Counterexample{
		Schema:             CorpusSchema,
		Archetype:          cfg.Archetype.ShortName(),
		Seed:               sc.Seed,
		Zones:              sc.Zones,
		TempSensorsPerZone: sc.TempSensorsPerZone,
		Cloudlets:          sc.Cloudlets,
		Duration:           sc.Duration.String(),
		MinPersistence:     cfg.MinPersistence,
		Schedule:           sr.Schedule,
		Failures:           sr.Verdict.Kinds(),
		GoalPersistence:    sr.Verdict.Report.GoalPersistence,
		JournalHash:        sr.Verdict.JournalHash,
	}
	ce.setName()
	return ce
}

// setName derives the canonical entry name from the archetype, the
// leading failure kind and the journal-hash prefix.
func (ce *Counterexample) setName() {
	kind := "failure"
	if len(ce.Failures) > 0 {
		kind = string(ce.Failures[0])
	}
	hash := ce.JournalHash
	if len(hash) > 8 {
		hash = hash[:8]
	}
	ce.Name = fmt.Sprintf("%s-%s-%s", strings.ToLower(ce.Archetype), kind, hash)
}

// Refresh re-runs the counterexample at default knobs and re-records
// its expected outcome: failure kinds, goal persistence, journal hash
// and the hash-suffixed name. It is the maintained path after an
// intentional behavioral change to the simulated stack (e.g. a wire-
// protocol rework) moves every journal hash. Every recorded failure
// kind must still recur — an entry the change actually fixes needs
// re-minimizing with `search`/`shrink`, not refreshing. Returns true
// when anything was re-recorded.
func (ce *Counterexample) Refresh() (bool, error) {
	cfg, err := ce.Config()
	if err != nil {
		return false, err
	}
	v := NewOracle(cfg).Run(ce.Schedule)
	for _, want := range ce.Failures {
		if !v.HasKind(want) {
			return false, fmt.Errorf("counterexample %s: failure %q no longer reproduces (got: %s); re-minimize instead of refreshing",
				ce.Name, want, v)
		}
	}
	changed := v.JournalHash != ce.JournalHash || v.Report.GoalPersistence != ce.GoalPersistence
	ce.Failures = v.Kinds()
	ce.GoalPersistence = v.Report.GoalPersistence
	ce.JournalHash = v.JournalHash
	ce.setName()
	return changed, nil
}

// Config rebuilds the oracle configuration the counterexample was
// found under.
func (ce *Counterexample) Config() (Config, error) {
	arch, err := core.ParseArchetype(ce.Archetype)
	if err != nil {
		return Config{}, fmt.Errorf("counterexample %s: %w", ce.Name, err)
	}
	dur, err := time.ParseDuration(ce.Duration)
	if err != nil {
		return Config{}, fmt.Errorf("counterexample %s: duration: %w", ce.Name, err)
	}
	sc := core.DefaultScenario()
	sc.Seed = ce.Seed
	sc.Zones = ce.Zones
	sc.TempSensorsPerZone = ce.TempSensorsPerZone
	sc.Cloudlets = ce.Cloudlets
	sc.Duration = dur
	return Config{Scenario: sc, Archetype: arch, MinPersistence: ce.MinPersistence}, nil
}

// HardenedConfig rebuilds the oracle configuration with every
// resilience knob on — the profile verify runs against.
func (ce *Counterexample) HardenedConfig() (Config, error) {
	cfg, err := ce.Config()
	if err != nil {
		return Config{}, err
	}
	cfg.Scenario = cfg.Scenario.Hardened()
	return cfg, nil
}

// Replay re-runs the counterexample and verifies it reproduces: every
// recorded failure kind must recur, the journal hash must match
// byte-for-byte and the goal persistence must equal the recorded one
// exactly (the regression contract — any behavioral drift in the
// simulated stack, or in how a run is scored, surfaces here).
func (ce *Counterexample) Replay() error {
	_, err := ce.replay()
	return err
}

// replay is Replay that also returns the run's journal (nil on a config
// error), so ReplayAll callers can explain a run without repeating it.
func (ce *Counterexample) replay() ([]core.RunEvent, error) {
	cfg, err := ce.Config()
	if err != nil {
		return nil, err
	}
	cfg.KeepJournal = true
	v := NewOracle(cfg).Run(ce.Schedule)
	for _, want := range ce.Failures {
		if !v.HasKind(want) {
			return v.Journal, fmt.Errorf("counterexample %s: failure %q did not reproduce (got: %s)", ce.Name, want, v)
		}
	}
	if v.JournalHash != ce.JournalHash {
		return v.Journal, fmt.Errorf("counterexample %s: journal hash drifted: recorded %s, replay %s",
			ce.Name, ce.JournalHash, v.JournalHash)
	}
	if r := v.Report.GoalPersistence; r != ce.GoalPersistence {
		return v.Journal, fmt.Errorf("counterexample %s: goal persistence drifted: recorded %v, replay %v",
			ce.Name, ce.GoalPersistence, r)
	}
	return v.Journal, nil
}

// WriteFile writes the counterexample as <dir>/<Name>.json (creating
// dir) and returns the path.
func (ce *Counterexample) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(ce, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, ce.Name+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCorpus reads every *.json counterexample in dir, sorted by file
// name for deterministic replay order. An entry no replay can run is an
// error naming the file and the field.
func LoadCorpus(dir string) ([]*Counterexample, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Counterexample
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ce, err := decodeCounterexample(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, ce)
	}
	return out, nil
}

// decodeCounterexample parses one corpus entry and rejects what no
// replay can run: another schema, a missing schedule, or scenario pins
// core.ScenarioConfig.Validate refuses.
func decodeCounterexample(data []byte) (*Counterexample, error) {
	var ce Counterexample
	if err := json.Unmarshal(data, &ce); err != nil {
		return nil, err
	}
	if ce.Schema != CorpusSchema {
		return nil, fmt.Errorf("schema %q, want %q", ce.Schema, CorpusSchema)
	}
	if ce.Schedule == nil {
		return nil, fmt.Errorf("schedule: missing")
	}
	cfg, err := ce.Config()
	if err != nil {
		return nil, err
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	return &ce, nil
}

// VerifyResult is one corpus entry's outcome under the hardened
// profile.
type VerifyResult struct {
	Name   string
	Expect string // what the corpus entry declares
	Status string // what the hardened run produced
	// R is the hardened run's goal persistence; RecordedR the
	// persistence recorded when the entry was found (default knobs).
	R         float64
	RecordedR float64
	// Detail summarizes the surviving failures when Status is
	// still-fails ("" when fixed).
	Detail string
	// Journal is the hardened run's event journal, for incident
	// analysis (verify -explain). Nil on config errors.
	Journal []core.RunEvent
	// Err is set on a config error or an expectation mismatch.
	Err error
}

// VerifyOptions tunes corpus verification beyond pass/fail.
type VerifyOptions struct {
	// FlightDir, when non-empty, dumps a flight-recorder artifact there
	// for every entry whose hardened run still fails.
	FlightDir string
}

// Verify replays the counterexample's schedule against the hardened
// scenario profile and classifies the entry: ExpectFixed when the
// oracle passes the run outright (no failure of any kind — stricter
// than "the recorded kinds no longer recur", so a fix cannot trade one
// failure class for another), ExpectStillFails otherwise. Unlike
// Replay it does not compare journal hashes: the hardened run is a
// different execution by design; the recorded hash pins only the
// default-knob replay. The hardened run's journal is always retained
// on the result — twelve short runs make journal capture free, and it
// is what verify -explain analyzes. opts adds observability only.
func (ce *Counterexample) Verify(opts VerifyOptions) VerifyResult {
	res := VerifyResult{Name: ce.Name, Expect: ce.expectation(), RecordedR: ce.GoalPersistence}
	cfg, err := ce.HardenedConfig()
	if err != nil {
		res.Err = err
		return res
	}
	cfg.KeepJournal = true
	cfg.FlightDir = opts.FlightDir
	v := NewOracle(cfg).Run(ce.Schedule)
	res.R = v.Report.GoalPersistence
	res.Journal = v.Journal
	if v.Failed() {
		res.Status = ExpectStillFails
		res.Detail = v.String()
	} else {
		res.Status = ExpectFixed
	}
	if res.Status != res.Expect {
		res.Err = fmt.Errorf("counterexample %s: hardened run is %s (R=%.3f), corpus expects %s",
			ce.Name, res.Status, res.R, res.Expect)
	}
	return res
}

// VerifyAllObserved verifies every counterexample against the hardened
// profile with opts applied to each entry, fanning over a RunPool at
// the given worker count. Results come back in corpus order whatever
// the parallelism; the returned error is the first expectation
// mismatch (all entries are verified regardless).
func VerifyAllObserved(ces []*Counterexample, workers int, opts VerifyOptions) ([]VerifyResult, error) {
	results := make([]VerifyResult, len(ces))
	jobs := make([]experiments.Job, len(ces))
	for i, ce := range ces {
		i, ce := i, ce
		jobs[i] = experiments.Job{
			ID: ce.Name,
			Run: func(int) error {
				results[i] = ce.Verify(opts)
				return nil // mismatches are reported per entry, not as pool aborts
			},
		}
	}
	if err := experiments.RunPool(workers, jobs); err != nil {
		return results, err
	}
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return results, nil
}

// ReplayResult is one corpus entry's replay outcome.
type ReplayResult struct {
	Name string
	// Journal is the replayed run's event journal, for incident
	// analysis (replay -explain). Nil on config errors.
	Journal []core.RunEvent
	Err     error
}

// ReplayAll replays every counterexample, fanning over a RunPool at the
// given worker count. Results come back in corpus order whatever the
// parallelism; the returned error is the first failure (all entries are
// replayed regardless, so the per-entry results are complete).
func ReplayAll(ces []*Counterexample, workers int) ([]ReplayResult, error) {
	results := make([]ReplayResult, len(ces))
	jobs := make([]experiments.Job, len(ces))
	for i, ce := range ces {
		i, ce := i, ce
		jobs[i] = experiments.Job{
			ID: ce.Name,
			Run: func(int) error {
				journal, err := ce.replay()
				results[i] = ReplayResult{Name: ce.Name, Journal: journal, Err: err}
				return nil // verification failures are reported per entry, not as pool aborts
			},
		}
	}
	if err := experiments.RunPool(workers, jobs); err != nil {
		return results, err
	}
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return results, nil
}
