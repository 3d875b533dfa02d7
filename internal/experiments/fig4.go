package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/space"
)

// Fig4Point compares cloud-mediated against edge-governed data flows
// at one WAN-partition intensity — the measured Figure 4: privacy,
// timeliness and availability of inter-IoT data exchange.
type Fig4Point struct {
	PartitionDuty float64
	// Availability: fraction of samples where the consumer had fresh
	// data (public + sensitive streams).
	CloudAvail float64
	EdgeAvail  float64
	// Staleness p95 of data present at the consumer.
	CloudStaleP95 time.Duration
	EdgeStaleP95  time.Duration
	// PrivacyViolations: sensitive items observed outside their
	// jurisdiction.
	CloudViolations int
	EdgeViolations  int
}

const (
	fig4Horizon  = 10 * time.Minute
	fig4Interval = time.Second
	fig4FreshWin = 5 * time.Second
	fig4Cycle    = time.Minute
)

// Figure4 sweeps the fraction of time the WAN to the cloud is
// partitioned away.
func Figure4(seed int64, duties []float64) []Fig4Point {
	out := make([]Fig4Point, 0, len(duties))
	for _, duty := range duties {
		ca, cs, cv := runFig4(seed, duty, false)
		ea, es, ev := runFig4(seed, duty, true)
		out = append(out, Fig4Point{
			PartitionDuty: duty,
			CloudAvail:    ca, EdgeAvail: ea,
			CloudStaleP95: cs, EdgeStaleP95: es,
			CloudViolations: cv, EdgeViolations: ev,
		})
	}
	return out
}

// runFig4 executes one mode: edgeGoverned synchronizes producer→
// consumer directly under an enforcing policy engine; the cloud
// mediated mode relays everything through the cloud under an
// observe-only engine (no governance).
func runFig4(seed int64, duty float64, edgeGoverned bool) (avail float64, staleP95 time.Duration, violations int) {
	sim := simnet.New(simnet.WithSeed(seed), simnet.WithDefaultLatency(2*time.Millisecond))
	m := space.NewMap()
	m.AddDomain(space.Domain{ID: "eu", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	m.AddDomain(space.Domain{ID: "cloudprov", Jurisdiction: space.JurisdictionCCPA, Trusted: true})
	m.Place("producer", space.Point{X: 0, Y: 0}, "eu")
	m.Place("consumer", space.Point{X: 50, Y: 0}, "eu")
	m.Place("cloud", space.Point{X: 500, Y: 500}, "cloudprov")

	prodEp := sim.AddNode("producer")
	consEp := sim.AddNode("consumer")
	cloudEp := sim.AddNode("cloud")
	sim.DegradeLink("producer", "cloud", 40*time.Millisecond, 0)
	sim.DegradeLink("consumer", "cloud", 40*time.Millisecond, 0)

	engine := dataflow.ObservedEngine
	if edgeGoverned {
		engine = dataflow.DefaultPrivacyEngine
	}
	var prodPeers []simnet.NodeID
	if edgeGoverned {
		prodPeers = []simnet.NodeID{"consumer", "cloud"}
	} else {
		prodPeers = []simnet.NodeID{"cloud"}
	}
	producer := dataflow.NewStore(prodEp, m, dataflow.StoreConfig{
		Peers: prodPeers, SyncInterval: fig4Interval, Engine: engine(),
	})
	var cloudPeers []simnet.NodeID
	if !edgeGoverned {
		cloudPeers = []simnet.NodeID{"consumer"} // relay downstream
	}
	cloudStore := dataflow.NewStore(cloudEp, m, dataflow.StoreConfig{
		Peers: cloudPeers, SyncInterval: fig4Interval, Engine: engine(),
	})
	consumer := dataflow.NewStore(consEp, m, dataflow.StoreConfig{
		SyncInterval: fig4Interval, Engine: engine(),
	})
	producer.Start()
	cloudStore.Start()
	consumer.Start()

	// Privacy auditing: sensitive items observed at the cloud.
	auditor := dataflow.ObservedEngine()
	euDom, _ := m.Domain("eu")
	cloudDom, _ := m.Domain("cloudprov")
	cloudStore.OnApply(func(item dataflow.Item, _ simnet.NodeID) {
		auditor.Admit(dataflow.FlowContext{Item: item, From: euDom, To: cloudDom}, sim.Now())
	})

	// Producer writes a public and a sensitive stream every interval.
	prodEp.Every(fig4Interval, func() {
		now := sim.Now()
		producer.Put(dataflow.Item{
			Key: "temp", Value: 21.0,
			Label:      dataflow.Label{Topic: "temperature", Sensitivity: dataflow.Public, Origin: "eu", Jurisdiction: space.JurisdictionGDPR},
			ProducedAt: now,
		})
		producer.Put(dataflow.Item{
			Key: "occ", Value: 3.0,
			Label:      dataflow.Label{Topic: "occupancy", Sensitivity: dataflow.Sensitive, Origin: "eu", Jurisdiction: space.JurisdictionGDPR},
			ProducedAt: now,
		})
	})

	// WAN partitions: the cloud is severed from the edge for
	// duty×cycle of every cycle.
	if duty > 0 {
		downFor := time.Duration(duty * float64(fig4Cycle))
		var cycle func(at time.Duration)
		cycle = func(at time.Duration) {
			sim.At(at, func() {
				sim.Partition([]simnet.NodeID{"producer", "consumer"}, []simnet.NodeID{"cloud"})
			})
			sim.At(at+downFor, func() { sim.HealPartition() })
			if next := at + fig4Cycle; next < fig4Horizon {
				cycle(next)
			}
		}
		cycle(10 * time.Second)
	}

	// Sample consumer-side availability and staleness.
	var availRatio metrics.Ratio
	stale := &metrics.LatencyRecorder{}
	var sample func()
	sample = func() {
		for _, key := range []string{"temp", "occ"} {
			st, ok := consumer.Staleness(key)
			fresh := ok && st <= fig4FreshWin
			// The edge-governed mode *must* deliver the sensitive
			// stream too (same jurisdiction); the cloud-mediated mode
			// delivers it only by violating policy — both facts are
			// measured as-is.
			availRatio.RecordOutcome(fresh)
			if ok {
				stale.Record(st)
			}
		}
		if sim.Now()+fig4Interval <= fig4Horizon {
			sim.After(fig4Interval, sample)
		}
	}
	sim.After(30*time.Second, sample) // settle-in

	sim.RunUntil(fig4Horizon)
	return availRatio.Value(), stale.Percentile(95), len(auditor.Violations())
}

// FormatFigure4 renders the series.
func FormatFigure4(points []Fig4Point) string {
	rows := [][]string{{"wan_down", "cloud_avail", "edge_avail", "cloud_p95", "edge_p95", "cloud_viol", "edge_viol"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.PartitionDuty*100),
			fmt.Sprintf("%.3f", p.CloudAvail),
			fmt.Sprintf("%.3f", p.EdgeAvail),
			p.CloudStaleP95.Round(time.Millisecond).String(),
			p.EdgeStaleP95.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", p.CloudViolations),
			fmt.Sprintf("%d", p.EdgeViolations),
		})
	}
	return formatTable(rows)
}
