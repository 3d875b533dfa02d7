package model

import (
	"testing"

	"repro/internal/verify"
)

func demoModel(t *testing.T) *GoalModel {
	t.Helper()
	reqs := []*Requirement{
		{ID: "R1", Prop: "temp_ok", Description: "temperature in range"},
		{ID: "R2", Prop: "data_fresh", Description: "readings fresh"},
		{ID: "R3", Prop: "cloud_sync", Description: "cloud backup current"},
		{ID: "R4", Prop: "edge_store", Description: "edge copy current"},
	}
	root := &Goal{
		ID: "G", Refinement: RefinementAND,
		Subgoals: []*Goal{
			{ID: "G1", Requirements: []RequirementID{"R1", "R2"}},
			{ID: "G2", Refinement: RefinementOR, Subgoals: []*Goal{
				{ID: "G2a", Requirements: []RequirementID{"R3"}},
				{ID: "G2b", Requirements: []RequirementID{"R4"}},
			}},
		},
	}
	m := NewGoalModel(root, reqs)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		m    *GoalModel
	}{
		{"nil root", NewGoalModel(nil, nil)},
		{"duplicate goal", NewGoalModel(&Goal{ID: "G", Refinement: RefinementAND, Subgoals: []*Goal{
			{ID: "G"},
		}}, nil)},
		{"empty goal", NewGoalModel(&Goal{ID: "G"}, nil)},
		{"unknown requirement", NewGoalModel(&Goal{ID: "G", Requirements: []RequirementID{"ghost"}}, nil)},
		{"missing refinement", NewGoalModel(&Goal{ID: "G", Subgoals: []*Goal{
			{ID: "G1", Requirements: []RequirementID{"R"}},
		}}, []*Requirement{{ID: "R", Prop: "p"}})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); err == nil {
				t.Fatal("Validate accepted invalid model")
			}
		})
	}
}

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

func TestRequirementLookup(t *testing.T) {
	m := demoModel(t)
	if r, ok := m.Requirement("R2"); !ok || r.Prop != "data_fresh" {
		t.Fatal("Requirement lookup failed")
	}
	if _, ok := m.Requirement("ghost"); ok {
		t.Fatal("ghost requirement found")
	}
}

func TestRefinementString(t *testing.T) {
	if RefinementAND.String() != "AND" || RefinementOR.String() != "OR" {
		t.Fatal("names wrong")
	}
	if Refinement(7).String() != "refinement(7)" {
		t.Fatal("unknown name wrong")
	}
}
