// Package dataflow implements the paper's inter-IoT data flows (§VI,
// Fig 4): data items carry labels (topic, sensitivity, origin
// jurisdiction), every flow between components crosses a policy engine
// that enforces privacy scopes ("what data should leave or enter a
// component"), and replicated stores synchronize via CRDT deltas so
// that availability and timeliness can be maintained without central
// storage. The policy engine can also run in observe-only mode, which
// is how the experiments quantify the privacy violations of ungoverned
// (cloud-mediated) architectures.
package dataflow

import (
	"time"

	"repro/internal/crdt"
	"repro/internal/space"
)

// Sensitivity classifies data for privacy purposes.
type Sensitivity int

// Sensitivity levels, least to most restricted.
const (
	// Public data may flow anywhere.
	Public Sensitivity = iota + 1
	// Internal data may not enter untrusted domains.
	Internal
	// Sensitive data may not leave its origin jurisdiction and may not
	// enter untrusted domains (GDPR-style).
	Sensitive
)

func (s Sensitivity) String() string {
	switch s {
	case Public:
		return "public"
	case Internal:
		return "internal"
	case Sensitive:
		return "sensitive"
	default:
		return "sensitivity(?)"
	}
}

// Label is the governance metadata attached to every data item.
type Label struct {
	Topic        string
	Sensitivity  Sensitivity
	Origin       space.DomainID
	Jurisdiction space.Jurisdiction
	// TTL, when positive, bounds the item's useful life: stores treat
	// an item older than its TTL as absent (the timeliness data goal —
	// stale control inputs are worse than missing ones).
	TTL time.Duration
}

// Hop is one step of an item's lineage: where the item was and when
// it got there.
type Hop struct {
	Node   string
	At     time.Duration
	Action string // "produced" or "received"
}

// Item is one governed datum. Lineage records the item's provenance —
// the paper's data-lineage requirement (§VI): its origin and every
// node it moved through, appended by the stores as the item travels.
type Item struct {
	Key        string
	Value      any
	Label      Label
	ProducedAt time.Duration
	Lineage    []Hop
}

// WithHop returns a copy of the item with one more lineage step. The
// original is not modified (items in flight are shared values).
func (it Item) WithHop(h Hop) Item {
	out := it
	out.Lineage = make([]Hop, 0, len(it.Lineage)+1)
	out.Lineage = append(out.Lineage, it.Lineage...)
	out.Lineage = append(out.Lineage, h)
	return out
}

// EncodedSize reports the label's encoded wire size: topic, origin and
// jurisdiction strings, the sensitivity byte and the TTL.
func (l Label) EncodedSize() int {
	return len(l.Topic) + 1 + len(l.Origin) + len(l.Jurisdiction) + 8
}

// EncodedSize reports one lineage hop's encoded wire size.
func (h Hop) EncodedSize() int {
	return len(h.Node) + 8 + len(h.Action)
}

// EncodedSize reports the item's encoded wire size — key, value
// payload, label, produced-at stamp and the full lineage chain. It
// implements crdt.SizedValue, so entries carrying Items are sized
// accurately by the sync byte accounting instead of by a flat guess.
func (it Item) EncodedSize() int {
	n := len(it.Key) + crdt.ValueSize(it.Value) + it.Label.EncodedSize() + 8
	for _, h := range it.Lineage {
		n += h.EncodedSize()
	}
	return n
}

// FlowContext describes one prospective item transfer for policy
// evaluation.
type FlowContext struct {
	Item Item
	From space.Domain
	To   space.Domain
}

// Rule is one policy clause: if Applies, the flow is allowed or denied
// by Allow; evaluation stops at the first applicable rule.
type Rule struct {
	Name    string
	Applies func(FlowContext) bool
	Allow   bool
}

// Decision is the policy outcome for a flow.
type Decision struct {
	Allowed bool
	Rule    string // name of the deciding rule, or "default"
}

// Mode selects whether the engine blocks disallowed flows or merely
// records them.
type Mode int

// Engine modes.
const (
	// Enforce blocks disallowed flows.
	Enforce Mode = iota + 1
	// Observe lets everything through but records violations — the
	// ungoverned baseline.
	Observe
)

// Engine evaluates flow policies. Construct with NewEngine.
type Engine struct {
	rules        []Rule
	defaultAllow bool
	mode         Mode

	violations []Violation
}

// Violation records a flow that policy disallowed (blocked under
// Enforce, witnessed under Observe).
type Violation struct {
	At   time.Duration
	Key  string
	Rule string
	From space.DomainID
	To   space.DomainID
}

// NewEngine builds an engine with the given rules, evaluated in order.
// defaultAllow decides flows no rule covers.
func NewEngine(mode Mode, defaultAllow bool, rules ...Rule) *Engine {
	return &Engine{rules: append([]Rule(nil), rules...), defaultAllow: defaultAllow, mode: mode}
}

// Decide evaluates the policy for a flow.
func (e *Engine) Decide(fc FlowContext) Decision {
	for _, r := range e.rules {
		if r.Applies(fc) {
			return Decision{Allowed: r.Allow, Rule: r.Name}
		}
	}
	return Decision{Allowed: e.defaultAllow, Rule: "default"}
}

// Admit decides a flow and applies the engine's mode: it returns
// whether the item should actually be transferred, recording a
// violation when policy said no. now is the current virtual time for
// the violation record.
func (e *Engine) Admit(fc FlowContext, now time.Duration) bool {
	d := e.Decide(fc)
	if d.Allowed {
		return true
	}
	e.violations = append(e.violations, Violation{
		At: now, Key: fc.Item.Key, Rule: d.Rule, From: fc.From.ID, To: fc.To.ID,
	})
	return e.mode == Observe
}

// Violations returns a copy of all recorded violations.
func (e *Engine) Violations() []Violation {
	out := make([]Violation, len(e.violations))
	copy(out, e.violations)
	return out
}

// ViolationCount returns the number of recorded violations without
// copying them.
func (e *Engine) ViolationCount() int { return len(e.violations) }

// --- standard rules from the paper's privacy discussion ---

// RuleSensitiveStaysInJurisdiction forbids Sensitive data from leaving
// the jurisdiction it was produced in (the GDPR scope of Fig 4).
func RuleSensitiveStaysInJurisdiction() Rule {
	return Rule{
		Name: "sensitive-stays-in-jurisdiction",
		Applies: func(fc FlowContext) bool {
			return fc.Item.Label.Sensitivity == Sensitive &&
				fc.To.Jurisdiction != fc.Item.Label.Jurisdiction
		},
		Allow: false,
	}
}

// RuleNoConfidentialToUntrusted forbids Internal and Sensitive data
// from entering untrusted domains.
func RuleNoConfidentialToUntrusted() Rule {
	return Rule{
		Name: "no-confidential-to-untrusted",
		Applies: func(fc FlowContext) bool {
			return fc.Item.Label.Sensitivity >= Internal && !fc.To.Trusted
		},
		Allow: false,
	}
}

// DefaultPrivacyEngine returns an enforcing engine with the paper's two
// core privacy scopes.
func DefaultPrivacyEngine() *Engine {
	return NewEngine(Enforce, true,
		RuleSensitiveStaysInJurisdiction(),
		RuleNoConfidentialToUntrusted(),
	)
}

// ObservedEngine returns an observe-only engine with the same rules,
// for measuring what an ungoverned data plane leaks.
func ObservedEngine() *Engine {
	return NewEngine(Observe, true,
		RuleSensitiveStaysInJurisdiction(),
		RuleNoConfidentialToUntrusted(),
	)
}
