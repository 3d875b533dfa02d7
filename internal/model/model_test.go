package model

import (
	"testing"

	"repro/internal/verify"
)

func TestRuntimePropertyDefault(t *testing.T) {
	r := &Requirement{ID: "R", Prop: "p"}
	if got := r.RuntimeProperty().String(); got != "G p" {
		t.Fatalf("default runtime property = %q, want G p", got)
	}
	r2 := &Requirement{ID: "R2", Prop: "p", Temporal: verify.LEventually(verify.LAP("q"))}
	if got := r2.RuntimeProperty().String(); got != "F q" {
		t.Fatalf("explicit property = %q", got)
	}
}
