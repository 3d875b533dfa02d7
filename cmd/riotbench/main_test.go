package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleQuickExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-only", "f2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "f9"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunNegativeShards(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-quick", "-only", "f2", "-shards", "-2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("negative -shards: err = %v, want an error naming the flag", err)
	}
	if out.Len() != 0 {
		t.Fatalf("negative -shards still ran something:\n%s", out.String())
	}
}

func TestRunQuickTable12(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-only", "table12"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ML4-resilient") {
		t.Fatalf("output missing matrix:\n%s", out.String())
	}
}

// TestRunParallelMatchesSerial is the CLI-level determinism check: the
// same campaign on one worker and on four must print byte-identical
// output, journal hashes included.
func TestRunParallelMatchesSerial(t *testing.T) {
	var serial, parallel strings.Builder
	base := []string{"-quick", "-only", "table12", "-seeds", "2", "-hashes"}
	if err := run(base, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-parallel", "4"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("serial and parallel output differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if !strings.Contains(serial.String(), "journal seed=1 arch=") {
		t.Fatalf("output missing journal hashes:\n%s", serial.String())
	}
}

// TestRunOutWritesBenchJSON checks the -out schema benchdiff consumes.
func TestRunOutWritesBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-quick", "-only", "f2", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Benches []struct {
			ID          string  `json:"id"`
			NsPerOp     int64   `json:"ns_per_op"`
			AllocsPerOp uint64  `json:"allocs_per_op"`
			Runs        int     `json:"runs"`
			RunsPerSec  float64 `json:"runs_per_sec"`
		} `json:"benches"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bench file is not valid JSON: %v", err)
	}
	if doc.Schema != "riotbench/bench/v1" {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Benches) != 1 || doc.Benches[0].ID != "f2" {
		t.Fatalf("benches = %+v", doc.Benches)
	}
	b := doc.Benches[0]
	if b.NsPerOp <= 0 || b.Runs <= 0 || b.RunsPerSec <= 0 {
		t.Fatalf("degenerate measurement: %+v", b)
	}
}

// TestRunOutBadPath: an unwritable -out target must fail the run.
func TestRunOutBadPath(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-quick", "-only", "f2", "-out", filepath.Join(t.TempDir(), "no", "such", "dir", "b.json")}, &out)
	if err == nil {
		t.Fatal("unwritable -out path accepted")
	}
}

// failWriter errors after the first write, standing in for a broken
// pipe or full disk on stdout.
type failWriter struct{ writes int }

var errSink = errors.New("sink closed")

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errSink
	}
	return len(p), nil
}

// TestRunWriteErrorPropagates: riotbench must exit non-zero when its
// output writer fails instead of silently printing into the void.
func TestRunWriteErrorPropagates(t *testing.T) {
	err := run([]string{"-quick", "-only", "f2"}, &failWriter{})
	if !errors.Is(err, errSink) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
}

// TestRunTraceOnly writes a Chrome trace without running experiments
// and round-trips it through encoding/json.
func TestRunTraceOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-trace", path, "-only", "none"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace:") {
		t.Fatalf("output = %q", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}
