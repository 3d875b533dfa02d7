package verify

import (
	"math"
	"testing"
)

func mustProb(t *testing.T, d *DTMC, from, to int, p float64) {
	t.Helper()
	if err := d.SetProb(from, to, p); err != nil {
		t.Fatal(err)
	}
}

// repairChain models up →(0.1) down →(0.5) up: a two-state
// failure/repair process with known closed-form behavior.
func repairChain(t *testing.T) (*DTMC, int) {
	t.Helper()
	d := NewDTMC()
	up := d.AddState("up")
	down := d.AddState("down")
	mustProb(t, d, up, up, 0.9)
	mustProb(t, d, up, down, 0.1)
	mustProb(t, d, down, up, 0.5)
	mustProb(t, d, down, down, 0.5)
	return d, down
}

func TestSetProbErrors(t *testing.T) {
	d := NewDTMC()
	d.AddState()
	if err := d.SetProb(0, 3, 0.5); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := d.SetProb(0, 0, 1.5); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := d.SetProb(0, 0, -0.1); err == nil {
		t.Fatal("negative probability accepted")
	}
}

func TestSetProbZeroRemovesEdge(t *testing.T) {
	d := NewDTMC()
	a := d.AddState()
	b := d.AddState()
	mustProb(t, d, a, b, 1)
	mustProb(t, d, a, b, 0)
	if row := d.rows[a]; len(row) != 0 {
		t.Fatalf("row after removing the edge = %v, want empty", row)
	}
}

func TestReachWithinRepairChain(t *testing.T) {
	d, down := repairChain(t)
	// From down, P(reach up within 1 step) = 0.5;
	// within 2 steps = 0.5 + 0.5*0.5 = 0.75.
	p1 := d.ReachWithin("up", 1)
	if math.Abs(p1[down]-0.5) > 1e-12 {
		t.Fatalf("P = %v, want 0.5", p1[down])
	}
	p2 := d.ReachWithin("up", 2)
	if math.Abs(p2[down]-0.75) > 1e-12 {
		t.Fatalf("P = %v, want 0.75", p2[down])
	}
	// Target states have probability 1 at any bound.
	if p1[0] != 1 {
		t.Fatalf("target state P = %v", p1[0])
	}
	// k=0: only target states count.
	p0 := d.ReachWithin("up", 0)
	if p0[down] != 0 {
		t.Fatalf("k=0 P = %v, want 0", p0[down])
	}
}

func TestReachWithAbsorbingFailure(t *testing.T) {
	// ok →0.5 ok, →0.3 goal, →0.2 dead (absorbing).
	d := NewDTMC()
	ok := d.AddState("ok")
	goal := d.AddState("goal")
	dead := d.AddState("dead")
	mustProb(t, d, ok, ok, 0.5)
	mustProb(t, d, ok, goal, 0.3)
	mustProb(t, d, ok, dead, 0.2)
	mustProb(t, d, goal, goal, 1)
	mustProb(t, d, dead, dead, 1)
	p := d.ReachWithin("goal", 100)
	// P = 0.3 / (1 - 0.5) = 0.6, less 0.6·0.5^100 past the bound.
	if math.Abs(p[ok]-0.6) > 1e-9 {
		t.Fatalf("P = %v, want 0.6", p[ok])
	}
	if p[dead] != 0 {
		t.Fatalf("absorbing failure P = %v, want 0", p[dead])
	}
}
