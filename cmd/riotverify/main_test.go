package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodSpec = `{
  "maxConcurrentFailures": 1,
  "components": [
    {"id": "sense-a", "host": "s1", "provides": ["sensing"]},
    {"id": "sense-b", "host": "s2", "provides": ["sensing"]}
  ],
  "properties": [
    {"name": "redundant", "formula": "AG svc:sensing"}
  ]
}`

func TestRunGoodSpec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{writeSpec(t, goodSpec)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "HOLDS") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestRunCommittedSpec runs the package doc's example specification,
// committed as testdata/edge.json, as CI does.
func TestRunCommittedSpec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{filepath.Join("testdata", "edge.json")}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"HOLDS   sensing-redundant:", "HOLDS   recoverable:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunFailingProperty(t *testing.T) {
	spec := `{
	  "components": [{"id": "c", "host": "h", "provides": ["x"]}],
	  "properties": [{"name": "spa", "formula": "AG svc:x"}]
	}`
	var out strings.Builder
	err := run([]string{writeSpec(t, spec)}, &out)
	if err == nil {
		t.Fatal("failing property did not error")
	}
	if !strings.Contains(out.String(), "FAILS") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		spec string
	}{
		{"bad json", "{"},
		{"no components", `{"properties":[{"name":"p","formula":"true"}]}`},
		{"no properties", `{"components":[{"id":"c","host":"h"}]}`},
		{"bad formula", `{"components":[{"id":"c","host":"h"}],"properties":[{"name":"p","formula":"AG ("}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{writeSpec(t, tt.spec)}, &out); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

func TestRunUsageAndMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"/nonexistent/spec.json"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

// failureBoundSpec is goodSpec's two redundant sensors with the bound
// line given verbatim ("" leaves the key out).
func failureBoundSpec(bound string) string {
	return `{` + bound + `
  "components": [
    {"id": "sense-a", "host": "s1", "provides": ["sensing"]},
    {"id": "sense-b", "host": "s2", "provides": ["sensing"]}
  ],
  "properties": [{"name": "redundant", "formula": "AG svc:sensing"}]
}`
}

func TestRunAbsentBoundMeansOne(t *testing.T) {
	var out strings.Builder
	if err := run([]string{writeSpec(t, failureBoundSpec(""))}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "≤1 concurrent failures → 3 states") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestRunZeroBoundIsFaultFree: 0 is the fault-free model, where even
// a property no failure can be allowed to break holds.
func TestRunZeroBoundIsFaultFree(t *testing.T) {
	spec := `{
	  "maxConcurrentFailures": 0,
	  "components": [{"id": "c", "host": "h", "provides": ["x"]}],
	  "properties": [{"name": "spa", "formula": "AG svc:x"}]
	}`
	var out strings.Builder
	if err := run([]string{writeSpec(t, spec)}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "≤0 concurrent failures → 1 states") || !strings.Contains(out.String(), "HOLDS") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunNegativeBoundIsError(t *testing.T) {
	var out strings.Builder
	err := run([]string{writeSpec(t, failureBoundSpec(`"maxConcurrentFailures": -1,`))}, &out)
	if err == nil || !strings.Contains(err.Error(), "maxConcurrentFailures -1") {
		t.Fatalf("err = %v, output %q", err, out.String())
	}
}

func TestRunUnknownFieldIsError(t *testing.T) {
	var out strings.Builder
	err := run([]string{writeSpec(t, failureBoundSpec(`"maxConcurentFailures": 2,`))}, &out)
	if err == nil || !strings.Contains(err.Error(), "maxConcurentFailures") {
		t.Fatalf("err = %v, output %q", err, out.String())
	}
}
