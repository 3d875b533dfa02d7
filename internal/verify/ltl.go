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
// by formula progression. Construct with the L-prefixed constructors.
type LTLFormula interface {
	// progress rewrites the formula given the current observation.
	progress(obs map[Prop]bool) LTLFormula
	// finalize evaluates the formula at the end of a finite trace
	// (LTLf semantics: pending F/U/X become false, G becomes true).
	finalize() bool
	String() string
}

type ltlTrue struct{}
type ltlFalse struct{}
type ltlAP struct{ p Prop }
type ltlNot struct{ f LTLFormula }
type ltlAnd struct{ fs []LTLFormula }
type ltlOr struct{ fs []LTLFormula }
type ltlNext struct{ f LTLFormula }
type ltlUntil struct{ a, b LTLFormula }
type ltlGlobally struct{ f LTLFormula }
type ltlEventually struct{ f LTLFormula }
type ltlBoundedEventually struct {
	k int
	f LTLFormula
}
type ltlBoundedGlobally struct {
	k int
	f LTLFormula
}

// LTrue is the always-satisfied formula.
func LTrue() LTLFormula { return ltlTrue{} }

// LFalse is the never-satisfied formula.
func LFalse() LTLFormula { return ltlFalse{} }

// LAP holds when the proposition is observed.
func LAP(p Prop) LTLFormula { return ltlAP{p: p} }

// LNot negates f.
func LNot(f LTLFormula) LTLFormula { return simplifyNot(f) }

// LAnd is the conjunction of fs.
func LAnd(fs ...LTLFormula) LTLFormula { return simplifyAnd(fs) }

// LOr is the disjunction of fs.
func LOr(fs ...LTLFormula) LTLFormula { return simplifyOr(fs) }

// LImplies is a→b.
func LImplies(a, b LTLFormula) LTLFormula { return LOr(LNot(a), b) }

// LNext holds if f holds at the next observation.
func LNext(f LTLFormula) LTLFormula { return ltlNext{f: f} }

// LUntil holds if a holds until b eventually holds.
func LUntil(a, b LTLFormula) LTLFormula { return ltlUntil{a: a, b: b} }

// LGlobally holds if f holds at every observation.
func LGlobally(f LTLFormula) LTLFormula { return ltlGlobally{f: f} }

// LEventually holds if f eventually holds.
func LEventually(f LTLFormula) LTLFormula { return ltlEventually{f: f} }

// LEventuallyWithin holds if f holds within k further observations
// (k=0 means now).
func LEventuallyWithin(k int, f LTLFormula) LTLFormula {
	return ltlBoundedEventually{k: k, f: f}
}

// LGloballyFor holds if f holds now and for the next k observations.
func LGloballyFor(k int, f LTLFormula) LTLFormula {
	return ltlBoundedGlobally{k: k, f: f}
}

// --- simplification ---

func simplifyNot(f LTLFormula) LTLFormula {
	switch g := f.(type) {
	case ltlTrue:
		return ltlFalse{}
	case ltlFalse:
		return ltlTrue{}
	case ltlNot:
		return g.f
	default:
		return ltlNot{f: f}
	}
}

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

func (f ltlNot) progress(obs map[Prop]bool) LTLFormula {
	return simplifyNot(f.f.progress(obs))
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

func (f ltlNext) progress(map[Prop]bool) LTLFormula { return f.f }

func (f ltlUntil) progress(obs map[Prop]bool) LTLFormula {
	// a U b  ⇒  prog(b) ∨ (prog(a) ∧ (a U b))
	return simplifyOr([]LTLFormula{
		f.b.progress(obs),
		simplifyAnd([]LTLFormula{f.a.progress(obs), f}),
	})
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

func (f ltlBoundedGlobally) progress(obs map[Prop]bool) LTLFormula {
	now := f.f.progress(obs)
	if f.k <= 0 {
		return now
	}
	return simplifyAnd([]LTLFormula{now, ltlBoundedGlobally{k: f.k - 1, f: f.f}})
}

// --- finalization (LTLf end-of-trace semantics) ---

func (ltlTrue) finalize() bool  { return true }
func (ltlFalse) finalize() bool { return false }
func (f ltlAP) finalize() bool  { return false } // no observation left
func (f ltlNot) finalize() bool { return !f.f.finalize() }

func (f ltlAnd) finalize() bool {
	for _, g := range f.fs {
		if !g.finalize() {
			return false
		}
	}
	return true
}

func (f ltlOr) finalize() bool {
	for _, g := range f.fs {
		if g.finalize() {
			return true
		}
	}
	return false
}

func (f ltlNext) finalize() bool              { return false }
func (f ltlUntil) finalize() bool             { return false }
func (f ltlGlobally) finalize() bool          { return true }
func (f ltlEventually) finalize() bool        { return false }
func (f ltlBoundedEventually) finalize() bool { return false }
func (f ltlBoundedGlobally) finalize() bool   { return true }

// --- strings ---

func (ltlTrue) String() string  { return "true" }
func (ltlFalse) String() string { return "false" }
func (f ltlAP) String() string  { return string(f.p) }
func (f ltlNot) String() string { return "!" + f.f.String() }

func joinLTL(fs []LTLFormula, sep string) string {
	parts := make([]string, len(fs))
	for i, g := range fs {
		parts[i] = g.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (f ltlAnd) String() string  { return joinLTL(f.fs, " & ") }
func (f ltlOr) String() string   { return joinLTL(f.fs, " | ") }
func (f ltlNext) String() string { return "X " + f.f.String() }
func (f ltlUntil) String() string {
	return fmt.Sprintf("(%s U %s)", f.a, f.b)
}
func (f ltlGlobally) String() string   { return "G " + f.f.String() }
func (f ltlEventually) String() string { return "F " + f.f.String() }
func (f ltlBoundedEventually) String() string {
	return fmt.Sprintf("F<=%d %s", f.k, f.f)
}
func (f ltlBoundedGlobally) String() string {
	return fmt.Sprintf("G<=%d %s", f.k, f.f)
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

// EvalTrace checks f on a complete finite trace under LTLf semantics
// and returns a definite verdict.
func EvalTrace(f LTLFormula, trace []map[Prop]bool) bool {
	cur := f
	for _, obs := range trace {
		cur = cur.progress(obs)
		switch cur.(type) {
		case ltlTrue:
			return true
		case ltlFalse:
			return false
		}
	}
	return cur.finalize()
}
