package verify

import (
	"testing"
)

func TestParseCTLRoundTrips(t *testing.T) {
	tests := []struct {
		input string
		want  string // String() of the parsed formula
	}{
		{"p", "p"},
		{"true", "true"},
		{"!p", "!p"},
		{"p & q", "(p & q)"},
		{"AG p", "!E[true U !p]"},
		{"EF p", "E[true U p]"},
		{"EX p", "EX p"},
		{"EG p", "EG p"},
		{"E[p U q]", "E[p U q]"},
		{"svc:control", "svc:control"},
		{"z0:temp_ok", "z0:temp_ok"},
	}
	for _, tt := range tests {
		t.Run(tt.input, func(t *testing.T) {
			f, err := ParseCTL(tt.input)
			if err != nil {
				t.Fatal(err)
			}
			if f.String() != tt.want {
				t.Fatalf("parsed %q, want %q", f.String(), tt.want)
			}
		})
	}
}

func TestParseCTLSemantics(t *testing.T) {
	// Parse and check on the branch structure: s0 → {a-loop, b-loop}.
	k := branchKS(t)
	tests := []struct {
		input string
		want  bool
	}{
		{"a", true},
		{"AG (a | b)", true},
		{"AF b", false},
		{"EF b", true},
		{"EG a", true},
		{"E[a U b]", true},
		{"A[a U b]", false},
		{"a -> EF b", true},
		{"!b", true},
		{"false", false},
		{"AG(a -> (EF b | EG a))", true},
		{"AX a | AX b", false},
		{"EX a & EX b", true},
	}
	for _, tt := range tests {
		t.Run(tt.input, func(t *testing.T) {
			f, err := ParseCTL(tt.input)
			if err != nil {
				t.Fatal(err)
			}
			if got := Check(k, f); got != tt.want {
				t.Fatalf("Check(%q) = %v, want %v", tt.input, got, tt.want)
			}
		})
	}
}

func TestParseCTLErrors(t *testing.T) {
	bad := []string{
		"", "(p", "p)", "p &", "AG", "A[p q]", "E[p U q", "p q",
		"& p", "A[", "->", "p -> ",
		// Stray bytes are not propositions.
		"#", "AG %", "AG <", "<=",
	}
	for _, input := range bad {
		if _, err := ParseCTL(input); err == nil {
			t.Errorf("ParseCTL(%q) accepted", input)
		}
	}
}

func TestLexer(t *testing.T) {
	toks := lex("AG(svc:control -> EF all-up)")
	want := []string{"AG", "(", "svc:control", "->", "EF", "all-up", ")"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// "a & b | c" parses as (a&b) | c.
	f, err := ParseCTL("a & b | c")
	if err != nil {
		t.Fatal(err)
	}
	k := NewKripke()
	s := k.AddState("c")
	if err := k.AddTransition(s, s); err != nil {
		t.Fatal(err)
	}
	k.SetInitial(s)
	if !Check(k, f) {
		t.Fatal("c alone should satisfy (a&b)|c")
	}
	// "a -> b -> c" is right associative: a -> (b -> c).
	f2, err := ParseCTL("a -> b -> c")
	if err != nil {
		t.Fatal(err)
	}
	if !Check(k, f2) {
		t.Fatal("vacuous implication should hold")
	}
}
