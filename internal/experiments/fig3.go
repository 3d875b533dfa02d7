package experiments

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Fig3Point compares centralized (cloud) against decentralized
// (edge-consensus) control at one cloud-downtime level — the measured
// Figure 3: the edge as a coordinated control agent that keeps issuing
// control actions when central control is unreachable.
type Fig3Point struct {
	CloudDowntime float64 // fraction of time the cloud is down
	// Success rates: fraction of control periods whose action reached
	// the actuator.
	CentralizedSuccess   float64
	DecentralizedSuccess float64
	// P95 action latency (issue → actuator), successful periods only.
	CentralizedP95   time.Duration
	DecentralizedP95 time.Duration
}

// fig3Action is the control command counted at the actuator.
type fig3Action struct {
	Period   int
	IssuedAt time.Duration
}

func (fig3Action) Size() int { return 16 }

// fig3Params fixes the workload shape.
const (
	fig3EdgeNodes     = 5
	fig3Period        = time.Second
	fig3Horizon       = 10 * time.Minute
	fig3OutageCycle   = time.Minute
	fig3EdgeCrashMTBF = 3 * time.Minute
	fig3EdgeRepair    = 20 * time.Second
)

// Figure3 sweeps cloud downtime and measures both control modes. Edge
// nodes additionally crash and recover randomly in both modes, so the
// decentralized variant also demonstrates leader re-election.
func Figure3(seed int64, downtimes []float64) []Fig3Point {
	out := make([]Fig3Point, 0, len(downtimes))
	for _, d := range downtimes {
		cSucc, cLat := runFig3(seed, d, false)
		dSucc, dLat := runFig3(seed, d, true)
		out = append(out, Fig3Point{
			CloudDowntime:        d,
			CentralizedSuccess:   cSucc,
			DecentralizedSuccess: dSucc,
			CentralizedP95:       cLat,
			DecentralizedP95:     dLat,
		})
	}
	return out
}

// runFig3 executes one mode at one downtime level.
func runFig3(seed int64, downtime float64, decentralized bool) (success float64, p95 time.Duration) {
	sim := simnet.New(simnet.WithSeed(seed), simnet.WithDefaultLatency(2*time.Millisecond))

	// Topology: one actuator, fig3EdgeNodes edge nodes, one cloud.
	actuator := sim.AddNode("actuator")
	var edgeIDs []simnet.NodeID
	var edgeEps []*simnet.Endpoint
	for i := 0; i < fig3EdgeNodes; i++ {
		id := simnet.NodeID(fmt.Sprintf("e%d", i))
		edgeIDs = append(edgeIDs, id)
		edgeEps = append(edgeEps, sim.AddNode(id))
	}
	cloud := sim.AddNode("cloud")
	for _, id := range append(append([]simnet.NodeID{}, edgeIDs...), "actuator") {
		sim.DegradeLink(id, "cloud", 40*time.Millisecond, 0)
	}

	// Actuator counts unique periods served.
	served := make(map[int]time.Duration) // period → first arrival latency
	actuator.OnMessage(func(_ simnet.NodeID, msg simnet.Message) {
		a, ok := msg.(fig3Action)
		if !ok {
			return
		}
		if _, dup := served[a.Period]; !dup {
			served[a.Period] = sim.Now() - a.IssuedAt
		}
	})

	period := func() int { return int(sim.Now() / fig3Period) }

	if decentralized {
		nodes := make([]*consensus.Node, fig3EdgeNodes)
		for i, ep := range edgeEps {
			nodes[i] = consensus.New(ep, edgeIDs, consensus.Config{}, nil)
			nodes[i].Start()
		}
		for i, ep := range edgeEps {
			n := nodes[i]
			ep.Every(fig3Period, func() {
				if n.Role() == consensus.Leader {
					ep.Send("actuator", fig3Action{Period: period(), IssuedAt: sim.Now()})
				}
			})
		}
	} else {
		cloud.Every(fig3Period, func() {
			cloud.Send("actuator", fig3Action{Period: period(), IssuedAt: sim.Now()})
		})
	}

	// Cloud outages with the requested duty cycle.
	if downtime > 0 {
		downFor := time.Duration(downtime * float64(fig3OutageCycle))
		var cycle func(at time.Duration)
		cycle = func(at time.Duration) {
			sim.At(at, func() { sim.SetDown("cloud", true) })
			sim.At(at+downFor, func() { sim.SetDown("cloud", false) })
			if next := at + fig3OutageCycle; next < fig3Horizon {
				cycle(next)
			}
		}
		cycle(10 * time.Second)
	}

	// Random edge crashes (same schedule in both modes).
	crashRNG := newSeededRand(seed + 7)
	for _, id := range edgeIDs {
		t := expDur(crashRNG, fig3EdgeCrashMTBF)
		for t < fig3Horizon {
			id := id
			at := t
			sim.At(at, func() { sim.SetDown(id, true) })
			sim.At(at+fig3EdgeRepair, func() { sim.SetDown(id, false) })
			t += fig3EdgeRepair + expDur(crashRNG, fig3EdgeCrashMTBF)
		}
	}

	sim.RunUntil(fig3Horizon)

	expected := int(fig3Horizon / fig3Period)
	lat := &metrics.LatencyRecorder{}
	hits := 0
	for p, l := range served {
		if p >= 0 && p < expected {
			hits++
			lat.Record(l)
		}
	}
	return float64(hits) / float64(expected), lat.Percentile(95)
}

// FormatFigure3 renders the series.
func FormatFigure3(points []Fig3Point) string {
	rows := [][]string{{"cloud_down", "central_ok", "decentral_ok", "central_p95", "decentral_p95"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.CloudDowntime*100),
			fmt.Sprintf("%.3f", p.CentralizedSuccess),
			fmt.Sprintf("%.3f", p.DecentralizedSuccess),
			p.CentralizedP95.Round(time.Millisecond).String(),
			p.DecentralizedP95.Round(time.Millisecond).String(),
		})
	}
	return formatTable(rows)
}
