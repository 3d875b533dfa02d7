package verify

import "testing"

// FuzzParseCTL checks the parser never panics and that accepted
// formulas render and re-parse stably (parse∘print is a fixpoint).
func FuzzParseCTL(f *testing.F) {
	for _, seed := range []string{
		"AG(svc:control -> EF all-up)",
		"E[a U b] & !c",
		"A[true U x] | EX y",
		"((((p))))",
		"!!p",
		"AG EF AG EF q",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		formula, err := ParseCTL(input)
		if err != nil {
			return
		}
		rendered := formula.String()
		again, err := ParseCTL(rendered)
		if err != nil {
			t.Fatalf("rendered form %q of %q does not re-parse: %v", rendered, input, err)
		}
		if again.String() != rendered {
			t.Fatalf("print∘parse not stable: %q → %q", rendered, again.String())
		}
	})
}
