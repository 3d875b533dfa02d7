package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// BenchmarkConvergence measures how much work full membership
// convergence takes at different cluster sizes.
func BenchmarkConvergence(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := simnet.New(simnet.WithSeed(int64(i+1)), simnet.WithDefaultLatency(2*time.Millisecond))
				ids := make([]simnet.NodeID, n)
				ps := make([]*Protocol, n)
				for j := 0; j < n; j++ {
					ids[j] = simnet.NodeID(fmt.Sprintf("n%d", j))
					ps[j] = New(sim.AddNode(ids[j]), Config{
						ProbeInterval:    500 * time.Millisecond,
						ProbeTimeout:     100 * time.Millisecond,
						SuspicionTimeout: 2 * time.Second,
					})
				}
				for j, p := range ps {
					if j == 0 {
						p.Start()
					} else {
						p.Start(ids[0])
					}
				}
				sim.RunUntil(30 * time.Second)
				for j, p := range ps {
					if got := p.AliveCount(); got != n {
						b.Fatalf("node %d sees %d alive, want %d", j, got, n)
					}
				}
			}
		})
	}
}

// BenchmarkProbeRound is one probe interval of a converged 200-member
// group: 200 pings and acks, each sorting and draining a piggyback
// queue that is still hundreds of updates deep after the join.
func BenchmarkProbeRound(b *testing.B) {
	const n = 200
	cfg := Config{ProbeInterval: 500 * time.Millisecond, ProbeTimeout: 100 * time.Millisecond, SuspicionTimeout: 2 * time.Second}
	sim := simnet.New(simnet.WithSeed(1), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(b, sim, n, cfg)
	sim.RunUntil(40 * time.Second)
	for j, p := range ps {
		if got := p.AliveCount(); got != n {
			b.Fatalf("node %d sees %d alive before the timed rounds, want %d", j, got, n)
		}
	}
	if len(ps[n/2].queue) == 0 {
		b.Fatal("queue already drained: the rounds would time the envelope path only")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunUntil(sim.Now() + cfg.ProbeInterval)
	}
}

// BenchmarkAntiEntropy is one push of the full 200-member view.
func BenchmarkAntiEntropy(b *testing.B) {
	p := solo(b, 200, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.antiEntropy()
	}
}
