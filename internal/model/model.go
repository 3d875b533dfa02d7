// Package model provides the analyzable system representations of the
// paper's modeling roadmap (§IV): requirements that carry their own
// runtime LTL property, a software configuration graph (components,
// services, hosts), and a translation of configurations into Kripke
// structures under a bounded-failure assumption, checked with CTL at
// design time — the concrete "IoT system model facet → verification"
// pipeline of Figure 2. Requirements as first-class objects are what
// make resilience *native*: each Requirement carries the property its
// MAPE-K loop monitors at runtime. The persistence metric is not
// evaluated here: a run's R comes from the violation and recovery
// records of its journal (core.Outages, metrics.Persistence).
package model

import "repro/internal/verify"

// RequirementID names a requirement.
type RequirementID string

// Requirement is a first-class requirement: a human description plus
// the formal property used to monitor it at runtime.
type Requirement struct {
	ID          RequirementID
	Description string
	// Prop is the atomic proposition whose truth encodes instantaneous
	// satisfaction; the runtime knowledge base publishes it each tick.
	Prop verify.Prop
	// Temporal is the runtime property monitored over the trace of
	// observations. When nil, it defaults to G(Prop) — an invariant.
	Temporal verify.LTLFormula
}

// RuntimeProperty returns the LTL property to monitor (the explicit
// Temporal formula, or the default invariant G(Prop)).
func (r *Requirement) RuntimeProperty() verify.LTLFormula {
	if r.Temporal != nil {
		return r.Temporal
	}
	return verify.LGlobally(verify.LAP(r.Prop))
}
