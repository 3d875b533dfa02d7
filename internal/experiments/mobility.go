package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/space"
)

// MobilityPoint compares static-binding against nearest-edge reporting
// with a replicated data plane, for a sensor that physically moves
// between zones — the mobility/handover concern the paper raises for
// runtime self-adaptation (§VII: "the spatial aspect is significant").
type MobilityPoint struct {
	// SpeedMps is the device's speed in meters per second.
	SpeedMps float64
	// Crossings is how many zone boundaries the device crossed.
	Crossings int
	// Freshness of the device's stream at the *current zone's* edge
	// node (the consumer that needs it for local control).
	StaticFreshness   float64
	HandoverFreshness float64
}

const (
	mobilityHorizon  = 10 * time.Minute
	mobilitySample   = time.Second
	mobilityFreshWin = 5 * time.Second
)

// ExtensionMobility sweeps device speed. In "static" mode the mobile
// sensor stays bound to its home gateway (ML1-style vertical binding);
// in "handover" mode it reports to the nearest gateway and the
// gateways synchronize through the governed CRDT data plane
// (ML4-style), so the current zone's edge always has fresh data.
func ExtensionMobility(seed int64, speeds []float64) []MobilityPoint {
	out := make([]MobilityPoint, 0, len(speeds))
	for _, speed := range speeds {
		sFresh, _ := runMobility(seed, speed, false)
		hFresh, crossings := runMobility(seed, speed, true)
		out = append(out, MobilityPoint{
			SpeedMps:          speed,
			Crossings:         crossings,
			StaticFreshness:   sFresh,
			HandoverFreshness: hFresh,
		})
	}
	return out
}

func runMobility(seed int64, speed float64, handover bool) (freshness float64, crossings int) {
	sim := simnet.New(simnet.WithSeed(seed), simnet.WithDefaultLatency(2*time.Millisecond))
	world := space.NewMap()
	world.AddDomain(space.Domain{ID: "campus", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	zones := []space.Zone{
		{ID: "west", Max: space.Point{X: 500, Y: 100}, DomainID: "campus"},
		{ID: "east", Min: space.Point{X: 501}, Max: space.Point{X: 1000, Y: 100}, DomainID: "campus"},
	}
	for _, z := range zones {
		if err := world.AddZone(z); err != nil {
			panic(err)
		}
	}
	world.Place("gw-west", space.Point{X: 250, Y: 50}, "campus")
	world.Place("gw-east", space.Point{X: 750, Y: 50}, "campus")
	world.Place("wearable", space.Point{X: 100, Y: 50}, "campus")

	gwWest := sim.AddNode("gw-west")
	gwEast := sim.AddNode("gw-east")
	sensor := sim.AddNode("wearable")

	// Gateways host governed stores; in handover mode they peer so the
	// stream is available wherever the device roams.
	var westPeers, eastPeers []simnet.NodeID
	if handover {
		westPeers = []simnet.NodeID{"gw-east"}
		eastPeers = []simnet.NodeID{"gw-west"}
	}
	storeWest := dataflow.NewStore(gwWest, world, dataflow.StoreConfig{Peers: westPeers, SyncInterval: mobilitySample})
	storeEast := dataflow.NewStore(gwEast, world, dataflow.StoreConfig{Peers: eastPeers, SyncInterval: mobilitySample})
	storeWest.Start()
	storeEast.Start()
	stores := map[space.ZoneID]*dataflow.Store{"west": storeWest, "east": storeEast}

	// The wearable patrols between the two zones.
	mover, err := space.NewMover(world, "wearable", speed, true,
		space.Point{X: 900, Y: 50}, space.Point{X: 100, Y: 50})
	if err != nil {
		panic(err)
	}

	// Reporting: fixed home gateway (static) or nearest gateway
	// (handover).
	gateways := world.Rank([]string{"gw-west", "gw-east"})
	sensor.Every(mobilitySample, func() {
		target := simnet.NodeID("gw-west")
		if handover {
			here, _ := world.PlacementOf("wearable")
			nearest, _ := gateways.Nearest(here.Position)
			target = simnet.NodeID(nearest)
		}
		sensor.Send(target, dataflow.Item{
			Key: "wearable/hr", Value: 72.0,
			Label:      dataflow.Label{Topic: "vitals", Sensitivity: dataflow.Sensitive, Origin: "campus", Jurisdiction: space.JurisdictionGDPR},
			ProducedAt: sim.Now(),
		})
	})
	gwWest.OnMessage(muxStoreAndReadings(storeWest))
	gwEast.OnMessage(muxStoreAndReadings(storeEast))

	// Physics: movement + freshness sampling at the current zone's
	// store.
	var fresh metrics.Ratio
	var step func()
	step = func() {
		if mover.Step(mobilitySample) {
			crossings++
		}
		zone, ok := world.ZoneOf("wearable")
		if ok {
			st := stores[zone.ID]
			age, hasIt := st.Staleness("wearable/hr")
			fresh.RecordOutcome(hasIt && age <= mobilityFreshWin)
		}
		if sim.Now()+mobilitySample <= mobilityHorizon {
			sim.After(mobilitySample, step)
		}
	}
	sim.After(30*time.Second, step)

	sim.RunUntil(mobilityHorizon)
	return fresh.Value(), crossings
}

// muxStoreAndReadings routes plain reading items into the store while
// leaving store-sync traffic to the store's own handler. The store
// installed its handler on the endpoint at construction; we wrap it.
func muxStoreAndReadings(st *dataflow.Store) simnet.Handler {
	inner := st.Handler()
	return func(from simnet.NodeID, msg simnet.Message) {
		if item, ok := msg.(dataflow.Item); ok {
			st.Put(item)
			return
		}
		inner(from, msg)
	}
}

// FormatMobility renders the series.
func FormatMobility(points []MobilityPoint) string {
	rows := [][]string{{"speed_mps", "crossings", "static_fresh", "handover_fresh"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.SpeedMps),
			fmt.Sprintf("%d", p.Crossings),
			fmt.Sprintf("%.3f", p.StaticFreshness),
			fmt.Sprintf("%.3f", p.HandoverFreshness),
		})
	}
	return formatTable(rows)
}
