// Healthcare: privacy scopes on inter-IoT data flows (the paper's
// Figure 4 narrative). A patient's wearables produce sensitive vitals
// inside a GDPR ward; the ward gateway acts as the edge of a privacy
// scope. Data synchronizes to the hospital's second ward (same
// jurisdiction — allowed), while a research cloud in another
// jurisdiction receives only the non-sensitive streams: the governed
// data plane blocks the vitals at the source, and an observe-only
// auditor proves an ungoverned plane would have leaked them.
//
//	go run ./examples/healthcare
package main

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/simnet"
	"repro/internal/space"
)

func main() {
	sim := simnet.New(simnet.WithSeed(7), simnet.WithDefaultLatency(2*time.Millisecond))

	// Spatial/administrative model: two GDPR wards, one CCPA cloud.
	world := space.NewMap()
	world.AddDomain(space.Domain{ID: "ward-a", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	world.AddDomain(space.Domain{ID: "ward-b", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	world.AddDomain(space.Domain{ID: "research-cloud", Jurisdiction: space.JurisdictionCCPA, Trusted: true})
	world.Place("gw-a", space.Point{X: 0, Y: 0}, "ward-a")
	world.Place("gw-b", space.Point{X: 80, Y: 0}, "ward-b")
	world.Place("cloud", space.Point{X: 900, Y: 900}, "research-cloud")

	gwA := sim.AddNode("gw-a")
	gwB := sim.AddNode("gw-b")
	cloud := sim.AddNode("cloud")
	sim.DegradeLink("gw-a", "cloud", 45*time.Millisecond, 0)
	sim.DegradeLink("gw-b", "cloud", 45*time.Millisecond, 0)

	// Governed stores: the ward gateways enforce the privacy scopes.
	storeA := dataflow.NewStore(gwA, world, dataflow.StoreConfig{
		Peers: []simnet.NodeID{"gw-b", "cloud"}, SyncInterval: time.Second,
	})
	storeB := dataflow.NewStore(gwB, world, dataflow.StoreConfig{SyncInterval: time.Second})
	cloudStore := dataflow.NewStore(cloud, world, dataflow.StoreConfig{SyncInterval: time.Second})
	storeA.Start()
	storeB.Start()
	cloudStore.Start()

	// An observe-only auditor shows what an ungoverned plane would
	// have shipped across the jurisdiction border.
	leakAuditor := dataflow.ObservedEngine()
	wardA, _ := world.Domain("ward-a")
	research, _ := world.Domain("research-cloud")

	// The patient's wearable: heart rate (sensitive) + room climate
	// (public), both every 2 seconds.
	beat := 0
	gwA.Every(2*time.Second, func() {
		beat++
		now := sim.Now()
		hr := dataflow.Item{
			Key: "patient-17/heart-rate", Value: 60 + beat%25,
			Label: dataflow.Label{
				Topic: "vitals", Sensitivity: dataflow.Sensitive,
				Origin: "ward-a", Jurisdiction: space.JurisdictionGDPR,
			},
			ProducedAt: now,
		}
		climate := dataflow.Item{
			Key: "room-301/temperature", Value: 21.5,
			Label: dataflow.Label{
				Topic: "climate", Sensitivity: dataflow.Public,
				Origin: "ward-a", Jurisdiction: space.JurisdictionGDPR,
			},
			ProducedAt: now,
		}
		storeA.Put(hr)
		storeA.Put(climate)
		// What would the ungoverned plane have done with the vitals?
		leakAuditor.Admit(dataflow.FlowContext{Item: hr, From: wardA, To: research}, now)
	})

	sim.RunUntil(time.Minute)

	fmt.Println("After one virtual minute of patient monitoring:")
	fmt.Println()
	show := func(name string, store *dataflow.Store) {
		_, hrOK := store.Get("patient-17/heart-rate")
		_, tempOK := store.Get("room-301/temperature")
		fmt.Printf("  %-22s heart-rate: %-8v climate: %v\n", name, has(hrOK), has(tempOK))
	}
	show("ward-a gateway", storeA)
	show("ward-b gateway (GDPR)", storeB)
	show("research cloud (CCPA)", cloudStore)

	fmt.Println()
	evaluated, denied := storeA.Engine().Stats()
	fmt.Printf("Ward-a out-flow policy: %d flows evaluated, %d denied by\n", evaluated, denied)
	fmt.Printf("  %q\n", "sensitive-stays-in-jurisdiction")
	fmt.Printf("An ungoverned plane would have leaked %d vitals readings to the\n",
		len(leakAuditor.Violations()))
	fmt.Println("research cloud over the same period.")
}

func has(ok bool) string {
	if ok {
		return "present"
	}
	return "BLOCKED"
}
