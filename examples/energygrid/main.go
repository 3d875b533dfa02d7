// Energy grid: decentralized coordination without central control
// (the paper's Figure 3 narrative). Five substation controllers form a
// Raft group that must keep issuing demand-response commands — shed or
// restore load — as grid frequency drifts. The utility's cloud SCADA
// link fails mid-run and two substations crash, yet the group keeps a
// leader and the control stream continues; a cloud-tethered controller
// is run side by side for contrast.
//
//	go run ./examples/energygrid
package main

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/simnet"
)

// shedCmd is a demand-response command counted at the feeder.
type shedCmd struct {
	Period int
	Shed   bool
}

const (
	horizon = 10 * time.Minute
	period  = 2 * time.Second
)

func main() {
	decentralSuccess := runGrid(true)
	centralSuccess := runGrid(false)

	fmt.Println("Demand-response control over a bad afternoon (cloud SCADA outage")
	fmt.Println("20%–60% of the run, two substation crashes):")
	fmt.Println()
	fmt.Printf("  cloud-tethered controller:   %5.1f%% of control periods served\n", centralSuccess*100)
	fmt.Printf("  substation Raft group (ML4): %5.1f%% of control periods served\n", decentralSuccess*100)
	fmt.Println()
	fmt.Println("The decentralized group re-elects around crashed substations and")
	fmt.Println("never depends on the SCADA uplink — no central point of failure.")
}

// runGrid executes one control mode and returns the fraction of
// control periods whose command reached the feeder.
func runGrid(decentralized bool) float64 {
	sim := simnet.New(simnet.WithSeed(21), simnet.WithDefaultLatency(3*time.Millisecond))
	world := env.New(22)
	world.Define("grid", env.Power, env.Process{
		Initial: 50.0, Noise: 0.01, ShockProb: 0.01, ShockMag: 0.3, Min: 48, Max: 52,
	})

	feeder := sim.AddNode("feeder")
	cloud := sim.AddNode("scada")
	subIDs := make([]simnet.NodeID, 5)
	subEps := make([]*simnet.Endpoint, 5)
	for i := range subIDs {
		subIDs[i] = simnet.NodeID(fmt.Sprintf("sub-%d", i))
		subEps[i] = sim.AddNode(subIDs[i])
		sim.DegradeLink(subIDs[i], "scada", 50*time.Millisecond, 0)
	}
	sim.DegradeLink("feeder", "scada", 50*time.Millisecond, 0)

	served := map[int]bool{}
	feeder.OnMessage(func(_ simnet.NodeID, msg simnet.Message) {
		if cmd, ok := msg.(shedCmd); ok {
			served[cmd.Period] = true
		}
	})

	decide := func(ep *simnet.Endpoint) {
		f, _ := world.Value("grid", env.Power)
		ep.Send("feeder", shedCmd{Period: int(sim.Now() / period), Shed: f < 49.9})
	}

	if decentralized {
		nodes := make([]*consensus.Node, len(subIDs))
		for i, ep := range subEps {
			nodes[i] = consensus.New(ep, subIDs, consensus.Config{}, nil)
			nodes[i].Start()
		}
		for i, ep := range subEps {
			n, ep := nodes[i], ep
			ep.Every(period, func() {
				if n.Role() == consensus.Leader {
					decide(ep)
				}
			})
		}
	} else {
		cloud.Every(period, func() { decide(cloud) })
	}

	// Physics: grid frequency drifts each second.
	var step func()
	step = func() {
		world.Step(time.Second)
		if sim.Now()+time.Second <= horizon {
			sim.After(time.Second, step)
		}
	}
	sim.After(time.Second, step)

	// Disruptions: the SCADA uplink dies for 40% of the run, and two
	// substations crash at different times.
	sim.At(horizon/5, func() { sim.SetDown("scada", true) })
	sim.At(3*horizon/5, func() { sim.SetDown("scada", false) })
	sim.At(horizon/4, func() { sim.SetDown("sub-1", true) })
	sim.At(horizon/4+time.Minute, func() { sim.SetDown("sub-1", false) })
	sim.At(horizon/2, func() { sim.SetDown("sub-3", true) })

	sim.RunUntil(horizon)

	expected := int(horizon / period)
	hits := 0
	for p := range served {
		if p >= 0 && p < expected {
			hits++
		}
	}
	return float64(hits) / float64(expected)
}
