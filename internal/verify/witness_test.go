package verify

import "testing"

func TestReachPathShortest(t *testing.T) {
	// 0→1→2→3 and shortcut 0→3.
	k := NewKripke()
	for i := 0; i < 4; i++ {
		k.AddState()
	}
	mustTrans(t, k, 0, 1)
	mustTrans(t, k, 1, 2)
	mustTrans(t, k, 2, 3)
	mustTrans(t, k, 0, 3)
	path, ok := ReachPath(k, 0, StateSet{3: true})
	if !ok || len(path) != 2 || path[0] != 0 || path[1] != 3 {
		t.Fatalf("path = %v, want [0 3]", path)
	}
}

func TestReachPathSelf(t *testing.T) {
	k := NewKripke()
	k.AddState()
	path, ok := ReachPath(k, 0, StateSet{0: true})
	if !ok || len(path) != 1 || path[0] != 0 {
		t.Fatalf("path = %v", path)
	}
}

func TestReachPathUnreachable(t *testing.T) {
	k := NewKripke()
	k.AddState()
	k.AddState() // no edges
	if _, ok := ReachPath(k, 0, StateSet{1: true}); ok {
		t.Fatal("found path to unreachable state")
	}
	if _, ok := ReachPath(k, 7, StateSet{0: true}); ok {
		t.Fatal("out-of-range start accepted")
	}
}

func TestDiagnoseAGFindsViolationPath(t *testing.T) {
	// ok(0) → ok(1) → bad(2); AG ok fails with witness 0→1→2.
	k := NewKripke()
	s0 := k.AddState("ok")
	s1 := k.AddState("ok")
	s2 := k.AddState()
	mustTrans(t, k, s0, s1)
	mustTrans(t, k, s1, s2)
	mustTrans(t, k, s2, s2)
	k.SetInitial(s0)

	path, found := DiagnoseAG(k, AP("ok"))
	if !found {
		t.Fatal("no diagnosis for failing AG")
	}
	if len(path) != 3 || path[0] != 0 || path[2] != 2 {
		t.Fatalf("witness = %v, want [0 1 2]", path)
	}
	// The last state of the witness violates the property.
	if k.Holds(path[len(path)-1], "ok") {
		t.Fatal("witness does not end in a violating state")
	}
}

func TestDiagnoseAGHoldingProperty(t *testing.T) {
	k := NewKripke()
	s0 := k.AddState("ok")
	mustTrans(t, k, s0, s0)
	k.SetInitial(s0)
	if _, found := DiagnoseAG(k, AP("ok")); found {
		t.Fatal("diagnosis produced for holding property")
	}
}

func TestDiagnoseAGUnreachableViolation(t *testing.T) {
	// A violating state exists but is unreachable: AG holds on the
	// reachable fragment, so Check passes but CheckCTL's global view
	// has bad states. DiagnoseAG must not fabricate a path.
	k := NewKripke()
	s0 := k.AddState("ok")
	k.AddState() // bad, unreachable
	mustTrans(t, k, s0, s0)
	k.SetInitial(s0)
	if _, found := DiagnoseAG(k, AP("ok")); found {
		t.Fatal("path to unreachable violation fabricated")
	}
}
