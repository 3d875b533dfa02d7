package verify

import (
	"testing"
	"testing/quick"
)

// obs builds an observation from the listed true propositions.
func obs(props ...Prop) map[Prop]bool {
	m := make(map[Prop]bool, len(props))
	for _, p := range props {
		m[p] = true
	}
	return m
}

func TestVerdictString(t *testing.T) {
	if VerdictTrue.String() != "true" || VerdictFalse.String() != "false" || VerdictUnknown.String() != "unknown" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Fatal("unknown verdict name wrong")
	}
}

func TestMonitorGlobally(t *testing.T) {
	m := NewMonitor(LGlobally(LAP("ok")))
	for i := 0; i < 5; i++ {
		if v := m.Step(obs("ok")); v != VerdictUnknown {
			t.Fatalf("step %d verdict = %v, want unknown (G can still fail)", i, v)
		}
	}
	if v := m.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v, want false after violation", v)
	}
	// Latch: further good observations don't resurrect it.
	if v := m.Step(obs("ok")); v != VerdictFalse {
		t.Fatalf("latched verdict changed to %v", v)
	}
}

func TestMonitorEventually(t *testing.T) {
	m := NewMonitor(LEventually(LAP("done")))
	if v := m.Step(obs()); v != VerdictUnknown {
		t.Fatalf("verdict = %v", v)
	}
	if v := m.Step(obs("done")); v != VerdictTrue {
		t.Fatalf("verdict = %v, want true", v)
	}
}

func TestMonitorNext(t *testing.T) {
	m := NewMonitor(LNext(LAP("p")))
	if v := m.Step(obs("p")); v != VerdictUnknown {
		t.Fatalf("X p decided on first step: %v", v)
	}
	if v := m.Step(obs("p")); v != VerdictTrue {
		t.Fatalf("verdict = %v", v)
	}

	m2 := NewMonitor(LNext(LAP("p")))
	m2.Step(obs("p"))
	if v := m2.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v", v)
	}
}

func TestMonitorUntil(t *testing.T) {
	m := NewMonitor(LUntil(LAP("wait"), LAP("go")))
	m.Step(obs("wait"))
	m.Step(obs("wait"))
	if v := m.Step(obs("go")); v != VerdictTrue {
		t.Fatalf("verdict = %v, want true", v)
	}

	m2 := NewMonitor(LUntil(LAP("wait"), LAP("go")))
	m2.Step(obs("wait"))
	if v := m2.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v, want false (neither wait nor go)", v)
	}
}

func TestMonitorBoundedEventually(t *testing.T) {
	// F<=2 p: must see p at step 1, 2 or 3.
	m := NewMonitor(LEventuallyWithin(2, LAP("p")))
	m.Step(obs())
	m.Step(obs())
	if v := m.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v, want false after deadline", v)
	}

	m2 := NewMonitor(LEventuallyWithin(2, LAP("p")))
	m2.Step(obs())
	if v := m2.Step(obs("p")); v != VerdictTrue {
		t.Fatalf("verdict = %v, want true before deadline", v)
	}
}

func TestMonitorBoundedGlobally(t *testing.T) {
	// G<=2 p: p must hold at steps 1..3, then the property is settled.
	m := NewMonitor(LGloballyFor(2, LAP("p")))
	m.Step(obs("p"))
	m.Step(obs("p"))
	if v := m.Step(obs("p")); v != VerdictTrue {
		t.Fatalf("verdict = %v, want true after window", v)
	}
	m2 := NewMonitor(LGloballyFor(2, LAP("p")))
	m2.Step(obs("p"))
	if v := m2.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v, want false on violation", v)
	}
}

func TestMonitorResponseProperty(t *testing.T) {
	// G(alarm -> F<=2 handled): every alarm handled within 2 steps.
	f := LGlobally(LImplies(LAP("alarm"), LEventuallyWithin(2, LAP("handled"))))
	m := NewMonitor(f)
	m.Step(obs())
	m.Step(obs("alarm"))
	m.Step(obs())
	if v := m.Step(obs("handled")); v != VerdictUnknown {
		t.Fatalf("verdict = %v, want unknown (G keeps watching)", v)
	}
	// A second alarm that is never handled violates at the deadline.
	m.Step(obs("alarm"))
	m.Step(obs())
	m.Step(obs())
	if v := m.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v, want false", v)
	}
}

func TestEvalTraceFiniteSemantics(t *testing.T) {
	trace := []map[Prop]bool{obs("a"), obs("a"), obs("a", "b")}
	tests := []struct {
		name string
		f    LTLFormula
		want bool
	}{
		{"G a holds on full trace", LGlobally(LAP("a")), true},
		{"F b holds", LEventually(LAP("b")), true},
		{"F c pending at end → false", LEventually(LAP("c")), false},
		{"G b fails", LGlobally(LAP("b")), false},
		{"a U b holds", LUntil(LAP("a"), LAP("b")), true},
		{"X a holds", LNext(LAP("a")), true},
		{"X at end → false", LNext(LNext(LNext(LAP("a")))), false},
		{"!F c", LNot(LEventually(LAP("c"))), true},
		{"true", LTrue(), true},
		{"false", LFalse(), false},
		{"implication", LImplies(LAP("a"), LEventually(LAP("b"))), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EvalTrace(tt.f, trace); got != tt.want {
				t.Fatalf("EvalTrace(%v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestEvalTraceEmptyTrace(t *testing.T) {
	if !EvalTrace(LGlobally(LAP("p")), nil) {
		t.Fatal("G p on empty trace should hold (vacuous)")
	}
	if EvalTrace(LEventually(LAP("p")), nil) {
		t.Fatal("F p on empty trace should fail")
	}
}

func TestSimplification(t *testing.T) {
	if got := LAnd(LTrue(), LAP("p"), LTrue()).String(); got != "p" {
		t.Fatalf("And simplification = %q", got)
	}
	if got := LAnd(LAP("p"), LFalse()).String(); got != "false" {
		t.Fatalf("And false = %q", got)
	}
	if got := LOr(LFalse(), LAP("p")).String(); got != "p" {
		t.Fatalf("Or simplification = %q", got)
	}
	if got := LOr(LTrue(), LAP("p")).String(); got != "true" {
		t.Fatalf("Or true = %q", got)
	}
	if got := LNot(LNot(LAP("p"))).String(); got != "p" {
		t.Fatalf("double negation = %q", got)
	}
	if got := LAnd(LAP("p"), LAP("p")).String(); got != "p" {
		t.Fatalf("dedup = %q", got)
	}
	if got := LAnd().String(); got != "true" {
		t.Fatalf("empty And = %q", got)
	}
	if got := LOr().String(); got != "false" {
		t.Fatalf("empty Or = %q", got)
	}
}

// Property: the monitor never grows without bound on G(p → F<=k q)
// style obligations because duplicate pending windows collapse.
func TestMonitorBoundedGrowth(t *testing.T) {
	f := LGlobally(LImplies(LAP("p"), LEventuallyWithin(5, LAP("q"))))
	m := NewMonitor(f)
	for i := 0; i < 1000; i++ {
		var o map[Prop]bool
		if i%2 == 0 {
			o = obs("p")
		} else {
			o = obs("p", "q")
		}
		m.Step(o)
		if n := len(m.cur.String()); n > 500 {
			t.Fatalf("pending formula exploded to %d chars at step %d", n, i)
		}
	}
	if m.Verdict() != VerdictUnknown {
		t.Fatalf("verdict = %v", m.Verdict())
	}
}

// Property: EvalTrace(G p) is equivalent to "p in every observation",
// EvalTrace(F p) to "p in some observation".
func TestLTLQuickEquivalences(t *testing.T) {
	prop := func(bits []bool) bool {
		trace := make([]map[Prop]bool, len(bits))
		all, some := true, false
		for i, b := range bits {
			if b {
				trace[i] = obs("p")
				some = true
			} else {
				trace[i] = obs()
				all = false
			}
		}
		if EvalTrace(LGlobally(LAP("p")), trace) != all {
			return false
		}
		if len(bits) > 0 && EvalTrace(LEventually(LAP("p")), trace) != some {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLTLStrings(t *testing.T) {
	f := LGlobally(LImplies(LAP("a"), LEventuallyWithin(3, LAP("b"))))
	want := "G (!a | F<=3 b)"
	if f.String() != want {
		t.Fatalf("String = %q, want %q", f.String(), want)
	}
	if got := LUntil(LAP("a"), LAP("b")).String(); got != "(a U b)" {
		t.Fatalf("String = %q", got)
	}
	if got := LGloballyFor(2, LAP("p")).String(); got != "G<=2 p" {
		t.Fatalf("String = %q", got)
	}
	if got := LNext(LAP("p")).String(); got != "X p" {
		t.Fatalf("String = %q", got)
	}
}
