package verify

import (
	"testing"
)

// chainKS builds s0 → s1 → s2 → s2(loop) labeled a; a; b.
func chainKS(t *testing.T) *Kripke {
	t.Helper()
	k := NewKripke()
	s0 := k.AddState("a")
	s1 := k.AddState("a")
	s2 := k.AddState("b")
	mustTrans(t, k, s0, s1)
	mustTrans(t, k, s1, s2)
	mustTrans(t, k, s2, s2)
	k.SetInitial(s0)
	return k
}

func mustTrans(t *testing.T, k *Kripke, a, b int) {
	t.Helper()
	if err := k.AddTransition(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestAddTransitionOutOfRange(t *testing.T) {
	k := NewKripke()
	k.AddState()
	if err := k.AddTransition(0, 5); err == nil {
		t.Fatal("out-of-range transition accepted")
	}
	if err := k.AddTransition(-1, 0); err == nil {
		t.Fatal("negative transition accepted")
	}
}

func TestCTLOnChain(t *testing.T) {
	k := chainKS(t)
	tests := []struct {
		name string
		f    CTLFormula
		want bool
	}{
		{"AP a holds initially", AP("a"), true},
		{"AP b does not hold initially", AP("b"), false},
		{"EX a", EX(AP("a")), true},
		{"AX a", AX(AP("a")), true},
		{"EF b", EF(AP("b")), true},
		{"AF b", AF(AP("b")), true},
		{"AG a fails (b state reachable)", AG(AP("a")), false},
		{"AG (a or b)", AG(Or(AP("a"), AP("b"))), true},
		{"EG a fails (no a-cycle)", EG(AP("a")), false},
		{"EG true", EG(True()), true},
		{"E[a U b]", EU(AP("a"), AP("b")), true},
		{"A[a U b]", AU(AP("a"), AP("b")), true},
		{"not b", Not(AP("b")), true},
		{"implication", Implies(AP("a"), EF(AP("b"))), true},
		{"and", And(AP("a"), EX(AP("a"))), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Check(k, tt.f); got != tt.want {
				t.Fatalf("Check(%v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

// branchKS: s0 branches to s1 (a-loop) and s2 (b-loop).
func branchKS(t *testing.T) *Kripke {
	t.Helper()
	k := NewKripke()
	s0 := k.AddState("a")
	s1 := k.AddState("a")
	s2 := k.AddState("b")
	mustTrans(t, k, s0, s1)
	mustTrans(t, k, s0, s2)
	mustTrans(t, k, s1, s1)
	mustTrans(t, k, s2, s2)
	k.SetInitial(s0)
	return k
}

func TestCTLOnBranch(t *testing.T) {
	k := branchKS(t)
	tests := []struct {
		name string
		f    CTLFormula
		want bool
	}{
		{"EG a (left branch)", EG(AP("a")), true},
		{"AF b fails (left branch never b)", AF(AP("b")), false},
		{"EF b", EF(AP("b")), true},
		{"AX a fails", AX(AP("a")), false},
		{"EX b", EX(AP("b")), true},
		{"A[a U b] fails", AU(AP("a"), AP("b")), false},
		{"E[a U b]", EU(AP("a"), AP("b")), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Check(k, tt.f); got != tt.want {
				t.Fatalf("Check(%v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

// mutexKS models two processes where the property "never both critical"
// holds — the classic AG !(c1 & c2).
func TestCTLMutexExample(t *testing.T) {
	k := NewKripke()
	idle := k.AddState()
	p1 := k.AddState("c1")
	p2 := k.AddState("c2")
	mustTrans(t, k, idle, p1)
	mustTrans(t, k, idle, p2)
	mustTrans(t, k, p1, idle)
	mustTrans(t, k, p2, idle)
	k.SetInitial(idle)
	if !Check(k, AG(Not(And(AP("c1"), AP("c2"))))) {
		t.Fatal("mutual exclusion should hold")
	}
	// Liveness: from anywhere, each process can reach its critical
	// section again.
	if !Check(k, AG(EF(AP("c1")))) {
		t.Fatal("c1 should remain reachable")
	}
}

func TestCounterexamples(t *testing.T) {
	k := branchKS(t)
	bad := Counterexamples(k, AF(AP("b")))
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("counterexamples = %v, want [0]", bad)
	}
	if got := Counterexamples(k, EF(AP("b"))); got != nil {
		t.Fatalf("unexpected counterexamples %v", got)
	}
}

func TestCheckCTLReturnsStateSet(t *testing.T) {
	k := chainKS(t)
	sat := CheckCTL(k, AP("a"))
	got := sat.Sorted()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("sat = %v", got)
	}
}

func TestFormulaStrings(t *testing.T) {
	f := AG(Implies(AP("hot"), AF(AP("cool"))))
	if f.String() == "" {
		t.Fatal("empty string")
	}
	if got := EU(AP("a"), AP("b")).String(); got != "E[a U b]" {
		t.Fatalf("String = %q", got)
	}
	if got := And().String(); got != "true" {
		t.Fatalf("empty And = %q", got)
	}
	if got := EG(AP("x")).String(); got != "EG x" {
		t.Fatalf("String = %q", got)
	}
	if got := EX(AP("x")).String(); got != "EX x" {
		t.Fatalf("String = %q", got)
	}
	if got := Not(AP("x")).String(); got != "!x" {
		t.Fatalf("String = %q", got)
	}
	if got := True().String(); got != "true" {
		t.Fatalf("String = %q", got)
	}
	if got := And(AP("a"), AP("b")).String(); got != "(a & b)" {
		t.Fatalf("String = %q", got)
	}
}

func TestEmptyAndIsTrue(t *testing.T) {
	k := chainKS(t)
	if !Check(k, And()) {
		t.Fatal("empty conjunction should hold")
	}
	if Check(k, Or()) {
		t.Fatal("empty disjunction should not hold")
	}
}

// TestCTLDualityProperty cross-checks AF/EG duality on a family of
// random structures: AF f ≡ ¬EG ¬f must agree state-by-state.
func TestCTLDualityProperty(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		k := randomKS(seed, 12)
		f := AP("p")
		af := CheckCTL(k, AF(f))
		eg := CheckCTL(k, EG(Not(f)))
		for s := 0; s < k.NumStates(); s++ {
			if af[s] == eg[s] {
				t.Fatalf("seed %d state %d: AF p and EG !p both %v", seed, s, af[s])
			}
		}
		// EF/AG duality too.
		ef := CheckCTL(k, EF(f))
		ag := CheckCTL(k, AG(Not(f)))
		for s := 0; s < k.NumStates(); s++ {
			if ef[s] == ag[s] {
				t.Fatalf("seed %d state %d: EF p and AG !p both %v", seed, s, ef[s])
			}
		}
	}
}

// randomKS builds a pseudo-random total Kripke structure.
func randomKS(seed, n int) *Kripke {
	k := NewKripke()
	x := uint64(seed)*2654435761 + 1
	next := func(mod int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(mod))
	}
	for i := 0; i < n; i++ {
		if next(2) == 0 {
			k.AddState("p")
		} else {
			k.AddState()
		}
	}
	for i := 0; i < n; i++ {
		edges := 1 + next(3)
		for e := 0; e < edges; e++ {
			_ = k.AddTransition(i, next(n))
		}
	}
	k.SetInitial(0)
	return k
}
