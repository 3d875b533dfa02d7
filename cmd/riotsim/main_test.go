package main

import (
	"strings"
	"testing"

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
	if err := run([]string{"-shards", "-1", "-duration", "1m"}, &out); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("negative -shards: err = %v, want an error naming the flag", err)
	}
}

func TestParseArchetype(t *testing.T) {
	if _, err := core.ParseArchetype("ml3"); err != nil {
		t.Fatal("lowercase archetype rejected")
	}
}
