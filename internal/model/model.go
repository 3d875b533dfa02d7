// Package model provides the analyzable system representations of the
// paper's modeling roadmap (§IV): a goal model with AND/OR refinement
// (requirements engineering), requirements that carry their own formal
// properties (design-time CTL, runtime LTL), a software configuration
// graph (components, services, hosts), and a translation of
// configurations into Kripke structures under a bounded-failure
// assumption — the concrete "IoT system model facet → verification"
// pipeline of Figure 2. Requirements as first-class objects are what
// make resilience *native*: the same Requirement drives design-time
// checking and runtime monitoring. The persistence metric is not
// evaluated here: a run's R comes from the violation and recovery
// records of its journal (core.Outages, metrics.Persistence).
package model

import (
	"fmt"

	"repro/internal/verify"
)

// RequirementID names a requirement.
type RequirementID string

// Requirement is a first-class requirement: a human description plus
// the formal artifacts used to validate it at design time and monitor
// it at runtime.
type Requirement struct {
	ID          RequirementID
	Description string
	// Prop is the atomic proposition whose truth encodes instantaneous
	// satisfaction; the runtime knowledge base publishes it each tick.
	Prop verify.Prop
	// Temporal is the runtime property monitored over the trace of
	// observations. When nil, it defaults to G(Prop) — an invariant.
	Temporal verify.LTLFormula
	// Design is an optional design-time CTL property checked against a
	// Kripke model of the configuration.
	Design verify.CTLFormula
}

// RuntimeProperty returns the LTL property to monitor (the explicit
// Temporal formula, or the default invariant G(Prop)).
func (r *Requirement) RuntimeProperty() verify.LTLFormula {
	if r.Temporal != nil {
		return r.Temporal
	}
	return verify.LGlobally(verify.LAP(r.Prop))
}

// GoalID names a goal.
type GoalID string

// Refinement is the decomposition mode of a goal's children.
type Refinement int

// Refinement modes.
const (
	// RefinementAND requires all children satisfied.
	RefinementAND Refinement = iota + 1
	// RefinementOR requires at least one child satisfied.
	RefinementOR
)

func (r Refinement) String() string {
	switch r {
	case RefinementAND:
		return "AND"
	case RefinementOR:
		return "OR"
	default:
		return fmt.Sprintf("refinement(%d)", int(r))
	}
}

// Goal is a node in the goal tree. A leaf goal is satisfied when all of
// its Requirements are; an inner goal per its Refinement over Subgoals.
type Goal struct {
	ID           GoalID
	Description  string
	Refinement   Refinement
	Subgoals     []*Goal
	Requirements []RequirementID
}

// GoalModel is a requirements goal tree with its requirement registry.
type GoalModel struct {
	root *Goal
	reqs map[RequirementID]*Requirement
}

// NewGoalModel builds a model rooted at root with the given
// requirements. Validate before use.
func NewGoalModel(root *Goal, reqs []*Requirement) *GoalModel {
	m := &GoalModel{root: root, reqs: make(map[RequirementID]*Requirement, len(reqs))}
	for _, r := range reqs {
		m.reqs[r.ID] = r
	}
	return m
}

// Requirement returns a requirement by ID.
func (m *GoalModel) Requirement(id RequirementID) (*Requirement, bool) {
	r, ok := m.reqs[id]
	return r, ok
}

// Validate checks structural sanity: a root exists, goal IDs are
// unique, every referenced requirement is registered, inner goals have
// children and leaves have requirements.
func (m *GoalModel) Validate() error {
	if m.root == nil {
		return fmt.Errorf("model: goal model has no root")
	}
	seen := make(map[GoalID]bool)
	var walk func(g *Goal) error
	walk = func(g *Goal) error {
		if seen[g.ID] {
			return fmt.Errorf("model: duplicate goal %q", g.ID)
		}
		seen[g.ID] = true
		if len(g.Subgoals) == 0 && len(g.Requirements) == 0 {
			return fmt.Errorf("model: goal %q has neither subgoals nor requirements", g.ID)
		}
		if len(g.Subgoals) > 0 && g.Refinement != RefinementAND && g.Refinement != RefinementOR {
			return fmt.Errorf("model: goal %q has children but no refinement mode", g.ID)
		}
		for _, rid := range g.Requirements {
			if _, ok := m.reqs[rid]; !ok {
				return fmt.Errorf("model: goal %q references unknown requirement %q", g.ID, rid)
			}
		}
		for _, c := range g.Subgoals {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(m.root)
}
