package model

import (
	"slices"
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

func TestGoalSatisfactionANDOR(t *testing.T) {
	m := demoModel(t)
	tests := []struct {
		name string
		sat  map[RequirementID]bool
		want bool
	}{
		{"all satisfied", map[RequirementID]bool{"R1": true, "R2": true, "R3": true, "R4": true}, true},
		{"OR alternative suffices", map[RequirementID]bool{"R1": true, "R2": true, "R4": true}, true},
		{"other OR alternative", map[RequirementID]bool{"R1": true, "R2": true, "R3": true}, true},
		{"both OR branches down", map[RequirementID]bool{"R1": true, "R2": true}, false},
		{"AND branch fails", map[RequirementID]bool{"R1": true, "R3": true}, false},
		{"nothing", nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Satisfied(tt.sat); got != tt.want {
				t.Fatalf("Satisfied = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCriticalRequirementGates(t *testing.T) {
	reqs := []*Requirement{
		{ID: "R1", Prop: "a", Critical: true},
		{ID: "R2", Prop: "b"},
		{ID: "R3", Prop: "c"},
	}
	root := &Goal{ID: "G", Refinement: RefinementOR, Subgoals: []*Goal{
		{ID: "Ga", Requirements: []RequirementID{"R1", "R2"}},
		{ID: "Gb", Requirements: []RequirementID{"R3"}},
	}}
	m := NewGoalModel(root, reqs)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Gb alone satisfies the OR, but critical R1 is down → whole tree
	// fails.
	if m.Satisfied(map[RequirementID]bool{"R3": true}) {
		t.Fatal("critical requirement did not gate the goal tree")
	}
	if !m.Satisfied(map[RequirementID]bool{"R1": true, "R3": true}) {
		t.Fatal("satisfied critical + OR branch should pass")
	}
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

// singlePointsOfFailure returns the requirements whose individual
// unsatisfaction, with everything else satisfied, breaks the root goal:
// OR-refined alternatives mask their members, while AND paths and
// critical requirements surface.
func singlePointsOfFailure(m *GoalModel) []RequirementID {
	all := make(map[RequirementID]bool)
	var ids []RequirementID
	for id := range m.reqs {
		all[id] = true
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []RequirementID
	for _, id := range ids {
		all[id] = false
		if !m.Satisfied(all) {
			out = append(out, id)
		}
		all[id] = true
	}
	return out
}

func TestSinglePointsOfFailure(t *testing.T) {
	m := demoModel(t)
	// R1, R2 sit on the AND path; R3, R4 are OR alternatives.
	got := singlePointsOfFailure(m)
	if len(got) != 2 || got[0] != "R1" || got[1] != "R2" {
		t.Fatalf("SPOFs = %v, want [R1 R2]", got)
	}
}

func TestSinglePointsOfFailureCritical(t *testing.T) {
	reqs := []*Requirement{
		{ID: "R1", Prop: "a", Critical: true},
		{ID: "R2", Prop: "b"},
	}
	root := &Goal{ID: "G", Refinement: RefinementOR, Subgoals: []*Goal{
		{ID: "Ga", Requirements: []RequirementID{"R1"}},
		{ID: "Gb", Requirements: []RequirementID{"R2"}},
	}}
	m := NewGoalModel(root, reqs)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// R1 is an OR alternative but critical → SPOF; R2 is masked.
	got := singlePointsOfFailure(m)
	if len(got) != 1 || got[0] != "R1" {
		t.Fatalf("SPOFs = %v, want [R1]", got)
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
