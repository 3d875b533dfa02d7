package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Verdict is the three-valued outcome of runtime monitoring (LTL3):
// a property can be irrevocably satisfied, irrevocably violated, or
// still undetermined on the trace observed so far.
type Verdict int

// Monitoring verdicts.
const (
	VerdictUnknown Verdict = iota + 1
	VerdictTrue
	VerdictFalse
)

func (v Verdict) String() string {
	switch v {
	case VerdictTrue:
		return "true"
	case VerdictFalse:
		return "false"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// LTLFormula is a linear-temporal-logic formula, monitored over traces
// by formula progression. Construct with LAP, LGlobally, LEventually and
// LEventuallyWithin.
type LTLFormula interface {
	// progress rewrites the formula given the current observation.
	progress(obs map[Prop]bool) LTLFormula
	String() string
}

type ltlTrue struct{}
type ltlFalse struct{}
type ltlAP struct{ p Prop }
type ltlAnd struct{ fs []LTLFormula }
type ltlOr struct{ fs []LTLFormula }
type ltlGlobally struct{ f LTLFormula }
type ltlEventually struct{ f LTLFormula }
type ltlBoundedEventually struct {
	k int
	f LTLFormula
}

// LAP holds when the proposition is observed.
func LAP(p Prop) LTLFormula { return ltlAP{p: p} }

// LGlobally holds if f holds at every observation.
func LGlobally(f LTLFormula) LTLFormula { return ltlGlobally{f: f} }

// LEventually holds if f eventually holds.
func LEventually(f LTLFormula) LTLFormula { return ltlEventually{f: f} }

// LEventuallyWithin holds if f holds within k further observations
// (k=0 means now).
func LEventuallyWithin(k int, f LTLFormula) LTLFormula {
	return ltlBoundedEventually{k: k, f: f}
}

// --- simplification ---

func simplifyAnd(fs []LTLFormula) LTLFormula {
	flat := make([]LTLFormula, 0, len(fs))
	seen := make(map[string]bool)
	for _, f := range fs {
		switch g := f.(type) {
		case ltlTrue:
			continue
		case ltlFalse:
			return ltlFalse{}
		case ltlAnd:
			for _, inner := range g.fs {
				if s := inner.String(); !seen[s] {
					seen[s] = true
					flat = append(flat, inner)
				}
			}
		default:
			if s := f.String(); !seen[s] {
				seen[s] = true
				flat = append(flat, f)
			}
		}
	}
	switch len(flat) {
	case 0:
		return ltlTrue{}
	case 1:
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].String() < flat[j].String() })
	return ltlAnd{fs: flat}
}

func simplifyOr(fs []LTLFormula) LTLFormula {
	flat := make([]LTLFormula, 0, len(fs))
	seen := make(map[string]bool)
	for _, f := range fs {
		switch g := f.(type) {
		case ltlFalse:
			continue
		case ltlTrue:
			return ltlTrue{}
		case ltlOr:
			for _, inner := range g.fs {
				if s := inner.String(); !seen[s] {
					seen[s] = true
					flat = append(flat, inner)
				}
			}
		default:
			if s := f.String(); !seen[s] {
				seen[s] = true
				flat = append(flat, f)
			}
		}
	}
	switch len(flat) {
	case 0:
		return ltlFalse{}
	case 1:
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].String() < flat[j].String() })
	return ltlOr{fs: flat}
}

// --- progression ---

func (ltlTrue) progress(map[Prop]bool) LTLFormula  { return ltlTrue{} }
func (ltlFalse) progress(map[Prop]bool) LTLFormula { return ltlFalse{} }

func (f ltlAP) progress(obs map[Prop]bool) LTLFormula {
	if obs[f.p] {
		return ltlTrue{}
	}
	return ltlFalse{}
}

func (f ltlAnd) progress(obs map[Prop]bool) LTLFormula {
	out := make([]LTLFormula, len(f.fs))
	for i, g := range f.fs {
		out[i] = g.progress(obs)
	}
	return simplifyAnd(out)
}

func (f ltlOr) progress(obs map[Prop]bool) LTLFormula {
	out := make([]LTLFormula, len(f.fs))
	for i, g := range f.fs {
		out[i] = g.progress(obs)
	}
	return simplifyOr(out)
}

func (f ltlGlobally) progress(obs map[Prop]bool) LTLFormula {
	return simplifyAnd([]LTLFormula{f.f.progress(obs), f})
}

func (f ltlEventually) progress(obs map[Prop]bool) LTLFormula {
	return simplifyOr([]LTLFormula{f.f.progress(obs), f})
}

func (f ltlBoundedEventually) progress(obs map[Prop]bool) LTLFormula {
	now := f.f.progress(obs)
	if f.k <= 0 {
		return now
	}
	return simplifyOr([]LTLFormula{now, ltlBoundedEventually{k: f.k - 1, f: f.f}})
}

// --- strings ---

func (ltlTrue) String() string  { return "true" }
func (ltlFalse) String() string { return "false" }
func (f ltlAP) String() string  { return string(f.p) }

func joinLTL(fs []LTLFormula, sep string) string {
	parts := make([]string, len(fs))
	for i, g := range fs {
		parts[i] = g.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (f ltlAnd) String() string        { return joinLTL(f.fs, " & ") }
func (f ltlOr) String() string         { return joinLTL(f.fs, " | ") }
func (f ltlGlobally) String() string   { return "G " + f.f.String() }
func (f ltlEventually) String() string { return "F " + f.f.String() }
func (f ltlBoundedEventually) String() string {
	return fmt.Sprintf("F<=%d %s", f.k, f.f)
}

// Monitor tracks one LTL property over a growing trace. The verdict
// latches: once true or false, further observations do not change it.
type Monitor struct {
	cur     LTLFormula // the residual obligation
	verdict Verdict
}

// NewMonitor builds a monitor for f.
func NewMonitor(f LTLFormula) *Monitor {
	return &Monitor{cur: f, verdict: VerdictUnknown}
}

// Step feeds one observation (the set of currently true propositions)
// and returns the updated verdict.
func (m *Monitor) Step(obs map[Prop]bool) Verdict {
	if m.verdict != VerdictUnknown {
		return m.verdict
	}
	m.cur = m.cur.progress(obs)
	switch m.cur.(type) {
	case ltlTrue:
		m.verdict = VerdictTrue
	case ltlFalse:
		m.verdict = VerdictFalse
	}
	return m.verdict
}

// Verdict returns the current verdict.
func (m *Monitor) Verdict() Verdict { return m.verdict }
