package verify

import (
	"fmt"
	"testing"
)

// ringKS builds an n-state ring with every 10th state labeled "goal".
func ringKS(n int) *Kripke {
	k := NewKripke()
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			k.AddState("goal")
		} else {
			k.AddState()
		}
	}
	for i := 0; i < n; i++ {
		_ = k.AddTransition(i, (i+1)%n)
	}
	k.SetInitial(0)
	return k
}

// BenchmarkCTLFixpoints measures AG(EF goal) — nested fixpoints — on
// growing rings.
func BenchmarkCTLFixpoints(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("states-%d", n), func(b *testing.B) {
			k := ringKS(n)
			f := AG(EF(AP("goal")))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !Check(k, f) {
					b.Fatal("property should hold on a ring")
				}
			}
		})
	}
}

// BenchmarkLTLMonitorStep measures one progression step of a realistic
// freshness property: handled is seen at least every sixth observation.
func BenchmarkLTLMonitorStep(b *testing.B) {
	f := LGlobally(LEventuallyWithin(5, LAP("handled")))
	m := NewMonitor(f)
	idle := map[Prop]bool{}
	handled := map[Prop]bool{"handled": true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.Step(idle)
		} else {
			m.Step(handled)
		}
	}
}

// BenchmarkDTMCBoundedReach measures 100-step bounded reachability on
// a 1000-state chain.
func BenchmarkDTMCBoundedReach(b *testing.B) {
	d := NewDTMC()
	const n = 1000
	for i := 0; i < n; i++ {
		if i == n-1 {
			d.AddState("goal")
		} else {
			d.AddState()
		}
	}
	for i := 0; i < n-1; i++ {
		_ = d.SetProb(i, i+1, 0.9)
		_ = d.SetProb(i, i, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.ReachWithin("goal", 100)
	}
}

// BenchmarkParseCTL measures formula parsing.
func BenchmarkParseCTL(b *testing.B) {
	const input = "AG(svc:control -> (EF all-up & !E[fault U svc:down]))"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCTL(input); err != nil {
			b.Fatal(err)
		}
	}
}
