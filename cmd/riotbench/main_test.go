package main

import (
	"errors"
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
	for _, tc := range []struct {
		args []string
		want string // substring the error must carry
	}{
		{[]string{"-nope"}, "-nope"},
		{[]string{"-quick", "-only", "x1", "extra", "args"}, `"extra"`},
		{[]string{"only", "f2"}, `"only"`},
		{[]string{"-quick", "-only", "f2", "-seeds", "0"}, "-seeds 0"},
		{[]string{"-quick", "-only", "f2", "-seeds", "-3"}, "-seeds -3"},
		{[]string{"-quick", "-only", "serve"}, `unknown experiment "serve"`},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q): err = %v, want an error naming %s", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) still ran something:\n%s", tc.args, out.String())
		}
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
