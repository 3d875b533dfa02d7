package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func shortCfg() core.ScenarioConfig {
	cfg := core.DefaultScenario()
	cfg.Duration = 3 * time.Minute
	return cfg
}

func TestRunPoolRunsAllJobs(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(int) error {
			ran.Add(1)
			return nil
		}}
	}
	for _, workers := range []int{1, 4, 0, 100} {
		ran.Store(0)
		if err := RunPool(workers, jobs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := ran.Load(); got != 20 {
			t.Fatalf("workers=%d ran %d jobs, want 20", workers, got)
		}
	}
}

func TestRunPoolEmpty(t *testing.T) {
	if err := RunPool(4, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunPoolCancelsOnFirstError pins the serial semantics: with one
// worker, jobs after the failing one must never start.
func TestRunPoolCancelsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	jobs := []Job{
		{ID: "ok", Run: func(int) error { return nil }},
		{ID: "fail", Run: func(int) error { return boom }},
		{ID: "late", Run: func(int) error { after.Add(1); return nil }},
		{ID: "later", Run: func(int) error { after.Add(1); return nil }},
	}
	err := RunPool(1, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "fail") {
		t.Fatalf("err %q does not name the failing job", err)
	}
	if after.Load() != 0 {
		t.Fatalf("%d jobs ran after the failure with one worker", after.Load())
	}
}

// With many workers the pool must still stop dispatching after a
// failure: at most the jobs already claimed may run.
func TestRunPoolStopsDispatchAfterError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	jobs := make([]Job, 200)
	jobs[0] = Job{ID: "fail", Run: func(int) error { return boom }}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(int) error {
			ran.Add(1)
			return nil
		}}
	}
	err := RunPool(4, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := ran.Load(); got >= int64(len(jobs)-1) {
		t.Fatalf("pool kept dispatching after the error: %d jobs ran", got)
	}
}

func TestRunPoolRecoversPanic(t *testing.T) {
	jobs := []Job{
		{ID: "kaboom", Run: func(int) error { panic("scenario exploded") }},
	}
	err := RunPool(2, jobs)
	if err == nil {
		t.Fatal("panicking job returned nil error")
	}
	if !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "scenario exploded") {
		t.Fatalf("err = %q, want job ID and panic value", err)
	}
}

// TestMatrixCampaignParallelMatchesSerial is the engine's core
// guarantee: same seeds, one worker vs many, byte-identical journal
// hashes and identical reports.
func TestMatrixCampaignParallelMatchesSerial(t *testing.T) {
	cfg := shortCfg()
	seeds := []int64{1, 7}

	serial, err := MatrixCampaign(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MatrixCampaign(cfg, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Seed != p.Seed {
			t.Fatalf("seed order differs at %d: %d vs %d", i, s.Seed, p.Seed)
		}
		for j := range s.Hashes {
			if s.Hashes[j] == "" {
				t.Fatalf("seed %d run %d: empty journal hash", s.Seed, j)
			}
			if s.Hashes[j] != p.Hashes[j] {
				t.Fatalf("seed %d archetype %d: serial hash %s != parallel hash %s",
					s.Seed, j, s.Hashes[j], p.Hashes[j])
			}
			if s.Reports[j] != p.Reports[j] {
				t.Fatalf("seed %d archetype %d: reports differ", s.Seed, j)
			}
		}
	}

	// So must the aggregate derived from them.
	fromRuns := StatsFromRuns(parallel)
	direct := StatsFromRuns(serial)
	if len(fromRuns) != len(direct) {
		t.Fatalf("stats row counts differ: %d vs %d", len(fromRuns), len(direct))
	}
	for i := range fromRuns {
		if fromRuns[i] != direct[i] {
			t.Fatalf("stats row %d differs: %+v vs %+v", i, fromRuns[i], direct[i])
		}
	}
}

// TestMatrixCampaignWorkerAttribution checks the recorded worker
// indices: with one worker everything belongs to worker 0.
func TestMatrixCampaignWorkerAttribution(t *testing.T) {
	runs, err := MatrixCampaign(shortCfg(), []int64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs[0].Workers) != len(core.AllArchetypes()) {
		t.Fatalf("recorded workers = %v, want one per archetype", runs[0].Workers)
	}
	for _, w := range runs[0].Workers {
		if w != 0 {
			t.Fatalf("recorded workers = %v, want all 0", runs[0].Workers)
		}
	}
}
