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

func TestMonitorResponseProperty(t *testing.T) {
	// G(F<=2 handled): handled is never missing for three observations
	// in a row.
	f := LGlobally(LEventuallyWithin(2, LAP("handled")))
	m := NewMonitor(f)
	m.Step(obs())
	m.Step(obs())
	if v := m.Step(obs("handled")); v != VerdictUnknown {
		t.Fatalf("verdict = %v, want unknown (G keeps watching)", v)
	}
	m.Step(obs("handled"))
	// A gap of three observations without handled violates at its end.
	m.Step(obs())
	m.Step(obs())
	if v := m.Step(obs()); v != VerdictFalse {
		t.Fatalf("verdict = %v, want false", v)
	}
}

// The progression simplifier drops neutral members, short-circuits on
// an absorbing one, flattens nesting and removes duplicates.
func TestSimplification(t *testing.T) {
	p, q := LAP("p"), LAP("q")
	tests := []struct {
		got  LTLFormula
		want string
	}{
		{simplifyAnd([]LTLFormula{ltlTrue{}, p, ltlTrue{}}), "p"},
		{simplifyAnd([]LTLFormula{p, ltlFalse{}}), "false"},
		{simplifyOr([]LTLFormula{ltlFalse{}, p}), "p"},
		{simplifyOr([]LTLFormula{ltlTrue{}, p}), "true"},
		{simplifyAnd([]LTLFormula{p, p}), "p"},
		{simplifyAnd([]LTLFormula{q, simplifyAnd([]LTLFormula{p, q})}), "(p & q)"},
		{simplifyOr([]LTLFormula{q, simplifyOr([]LTLFormula{p, q})}), "(p | q)"},
		{simplifyAnd(nil), "true"},
		{simplifyOr(nil), "false"},
	}
	for i, tt := range tests {
		if tt.got.String() != tt.want {
			t.Errorf("case %d = %q, want %q", i, tt.got, tt.want)
		}
	}
}

// Property: the monitor never grows without bound on G(F<=k q)
// obligations, because a window opened at each observation collapses
// into the pending ones when q is seen.
func TestMonitorBoundedGrowth(t *testing.T) {
	f := LGlobally(LEventuallyWithin(5, LAP("q")))
	m := NewMonitor(f)
	for i := 0; i < 1000; i++ {
		o := obs()
		if i%3 == 2 {
			o = obs("q")
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

// Property: a G p monitor latches false exactly when some observation
// lacks p and is otherwise unknown; an F p monitor latches true exactly
// when some observation has p and is otherwise unknown.
func TestLTLQuickEquivalences(t *testing.T) {
	prop := func(bits []bool) bool {
		g := NewMonitor(LGlobally(LAP("p")))
		f := NewMonitor(LEventually(LAP("p")))
		all, some := true, false
		for _, b := range bits {
			o := obs()
			if b {
				o = obs("p")
			}
			all = all && b
			some = some || b
			g.Step(o)
			f.Step(o)
		}
		wantG, wantF := VerdictUnknown, VerdictUnknown
		if !all {
			wantG = VerdictFalse
		}
		if some {
			wantF = VerdictTrue
		}
		return g.Verdict() == wantG && f.Verdict() == wantF
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLTLStrings(t *testing.T) {
	f := LGlobally(LEventuallyWithin(3, LAP("b")))
	if got, want := f.String(), "G F<=3 b"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := LEventually(LAP("p")).String(); got != "F p" {
		t.Fatalf("String = %q", got)
	}
	// Progression renders the residual conjunction and disjunction.
	m := NewMonitor(LGlobally(LEventuallyWithin(2, LAP("b"))))
	m.Step(obs())
	if got, want := m.cur.String(), "(F<=1 b & G F<=2 b)"; got != want {
		t.Fatalf("residual = %q, want %q", got, want)
	}
	m2 := NewMonitor(LEventually(LEventuallyWithin(1, LAP("a"))))
	m2.Step(obs())
	if got, want := m2.cur.String(), "(F F<=1 a | F<=0 a)"; got != want {
		t.Fatalf("residual = %q, want %q", got, want)
	}
}
