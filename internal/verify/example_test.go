package verify_test

import (
	"fmt"

	"repro/internal/verify"
)

// A two-state failure/repair system: "up" can fail, "down" can repair.
// Design-time verification shows the system can always recover, and
// quantitative analysis bounds how fast.
func Example() {
	k := verify.NewKripke()
	up := k.AddState("up")
	down := k.AddState()
	_ = k.AddTransition(up, up)
	_ = k.AddTransition(up, down)
	_ = k.AddTransition(down, up)
	k.SetInitial(up)

	recoverable, _ := verify.ParseCTL("AG EF up")
	alwaysUp, _ := verify.ParseCTL("AG up")
	fmt.Println("AG EF up:", verify.Check(k, recoverable))
	fmt.Println("AG up:   ", verify.Check(k, alwaysUp))

	// Output:
	// AG EF up: true
	// AG up:    false
}

// Runtime monitors carry design-time properties to runtime: this
// freshness property ("handled is never missing for three observations
// in a row") is monitored over a live trace with three-valued verdicts.
func ExampleMonitor() {
	f := verify.LGlobally(verify.LEventuallyWithin(2, verify.LAP("handled")))
	m := verify.NewMonitor(f)

	obs := func(props ...verify.Prop) map[verify.Prop]bool {
		out := make(map[verify.Prop]bool)
		for _, p := range props {
			out[p] = true
		}
		return out
	}
	fmt.Println(m.Step(obs("handled"))) // fresh
	fmt.Println(m.Step(obs()))          // obligation opens
	fmt.Println(m.Step(obs("handled"))) // obligation met
	fmt.Println(m.Step(obs()), "...")   // another gap
	m.Step(obs())
	fmt.Println(m.Step(obs())) // deadline missed

	// Output:
	// unknown
	// unknown
	// unknown
	// unknown ...
	// false
}

// DTMCs answer quantitative resilience questions: the probability that
// a failed component repairs within k steps.
func ExampleDTMC_reachWithin() {
	d := verify.NewDTMC()
	up := d.AddState("up")
	down := d.AddState("down")
	_ = d.SetProb(up, up, 0.9)
	_ = d.SetProb(up, down, 0.1)
	_ = d.SetProb(down, up, 0.5)
	_ = d.SetProb(down, down, 0.5)

	p := d.ReachWithin("up", 3)
	fmt.Printf("P[repair within 3 steps] = %.3f\n", p[down])

	// Output:
	// P[repair within 3 steps] = 0.875
}
